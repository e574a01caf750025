// Package spark simulates a Spark cluster executing dataflow programs under
// a tunable configuration — the substrate the paper runs on (a 20-node
// cluster with 2×Xeon Gold 6130 and 768 GB per node, §VI "Hardware").
//
// The simulator is analytic: a dataflow program (a DAG of operators, §II-A)
// is compiled into stages at shuffle boundaries, stages execute as waves of
// tasks over the configured executors, and latency, cost and ~60 runtime
// trace metrics are derived from first-order models of CPU, memory-pressure
// spill, shuffle, compression and broadcast effects, with seeded log-normal
// noise. The MOO layer never sees the simulator directly — it sees learned
// models trained on the simulator's traces, exactly as the paper's optimizer
// sees models trained on cluster traces — so what matters is that the
// response surfaces have the right qualitative shape: latency falls with
// cores at diminishing returns, under-provisioned memory spills, compression
// trades CPU for network, and parallelism has a workload-dependent sweet
// spot.
package spark

import "repro/internal/space"

// Batch knob names — the 12 most important Spark parameters selected in the
// paper's feature-engineering step (Appendix C-B).
const (
	KnobParallelism     = "spark.default.parallelism"
	KnobInstances       = "spark.executor.instances"
	KnobCores           = "spark.executor.cores"
	KnobMemory          = "spark.executor.memory"
	KnobMaxSizeInFlight = "spark.reducer.maxSizeInFlight"
	KnobBypassMerge     = "spark.shuffle.sort.bypassMergeThreshold"
	KnobCompress        = "spark.shuffle.compress"
	KnobMemFraction     = "spark.memory.fraction"
	KnobBatchSize       = "spark.sql.inMemoryColumnarStorage.batchSize"
	KnobMaxPartition    = "spark.sql.files.maxPartitionBytes"
	KnobBroadcast       = "spark.sql.autoBroadcastJoinThreshold"
	KnobShufflePart     = "spark.sql.shuffle.partitions"
)

// Streaming knob names (Appendix C-B's streaming list).
const (
	KnobBatchInterval = "batchInterval"
	KnobBlockInterval = "spark.streaming.blockInterval"
	KnobInputRate     = "inputRate"
)

// BatchSpace returns the 12-knob decision space for batch workloads. Units:
// memory in GB, maxSizeInFlight in MB, maxPartitionBytes in MB,
// autoBroadcastJoinThreshold in MB.
func BatchSpace() *space.Space {
	return space.MustNew([]space.Var{
		{Name: KnobParallelism, Kind: space.Integer, Min: 8, Max: 320, Log: true},
		{Name: KnobInstances, Kind: space.Integer, Min: 2, Max: 14},
		{Name: KnobCores, Kind: space.Integer, Min: 1, Max: 4},
		{Name: KnobMemory, Kind: space.Integer, Min: 1, Max: 16},
		{Name: KnobMaxSizeInFlight, Kind: space.Integer, Min: 24, Max: 144},
		{Name: KnobBypassMerge, Kind: space.Integer, Min: 100, Max: 1000},
		{Name: KnobCompress, Kind: space.Boolean},
		{Name: KnobMemFraction, Kind: space.Continuous, Min: 0.4, Max: 0.9},
		{Name: KnobBatchSize, Kind: space.Integer, Min: 2500, Max: 40000, Log: true},
		{Name: KnobMaxPartition, Kind: space.Integer, Min: 32, Max: 256},
		{Name: KnobBroadcast, Kind: space.Integer, Min: 1, Max: 100, Log: true},
		{Name: KnobShufflePart, Kind: space.Integer, Min: 8, Max: 1000, Log: true},
	})
}

// StreamSpace returns the streaming decision space: batch interval in
// seconds, block interval in milliseconds, input rate in records/second,
// plus the shared resource and shuffle knobs.
func StreamSpace() *space.Space {
	return space.MustNew([]space.Var{
		{Name: KnobBatchInterval, Kind: space.Continuous, Min: 1, Max: 20},
		{Name: KnobBlockInterval, Kind: space.Integer, Min: 50, Max: 1000, Log: true},
		{Name: KnobInputRate, Kind: space.Integer, Min: 10_000, Max: 2_000_000, Log: true},
		{Name: KnobParallelism, Kind: space.Integer, Min: 8, Max: 320, Log: true},
		{Name: KnobInstances, Kind: space.Integer, Min: 2, Max: 14},
		{Name: KnobCores, Kind: space.Integer, Min: 1, Max: 4},
		{Name: KnobMemory, Kind: space.Integer, Min: 1, Max: 16},
		{Name: KnobMaxSizeInFlight, Kind: space.Integer, Min: 24, Max: 144},
		{Name: KnobBypassMerge, Kind: space.Integer, Min: 100, Max: 1000},
		{Name: KnobCompress, Kind: space.Boolean},
		{Name: KnobMemFraction, Kind: space.Continuous, Min: 0.4, Max: 0.9},
	})
}

// DefaultBatchConf mirrors Spark's out-of-the-box defaults projected onto
// the batch space — the configuration x1 a first-time task runs with
// (§II-B).
func DefaultBatchConf(s *space.Space) space.Values {
	vals := make(space.Values, s.NumVars())
	set := func(name string, v float64) {
		if i := s.Lookup(name); i >= 0 {
			vals[i] = space.Value(v)
		}
	}
	set(KnobParallelism, 48)
	set(KnobInstances, 4)
	set(KnobCores, 2)
	set(KnobMemory, 4)
	set(KnobMaxSizeInFlight, 48)
	set(KnobBypassMerge, 200)
	set(KnobCompress, 1)
	set(KnobMemFraction, 0.6)
	set(KnobBatchSize, 10000)
	set(KnobMaxPartition, 128)
	set(KnobBroadcast, 10)
	set(KnobShufflePart, 200)
	return vals
}

// DefaultStreamConf is the streaming analogue of DefaultBatchConf.
func DefaultStreamConf(s *space.Space) space.Values {
	vals := make(space.Values, s.NumVars())
	set := func(name string, v float64) {
		if i := s.Lookup(name); i >= 0 {
			vals[i] = space.Value(v)
		}
	}
	set(KnobBatchInterval, 5)
	set(KnobBlockInterval, 200)
	set(KnobInputRate, 100_000)
	set(KnobParallelism, 48)
	set(KnobInstances, 4)
	set(KnobCores, 2)
	set(KnobMemory, 4)
	set(KnobMaxSizeInFlight, 48)
	set(KnobBypassMerge, 200)
	set(KnobCompress, 1)
	set(KnobMemFraction, 0.6)
	return vals
}

// CoresModel returns the exact model of the cost-in-cores objective, which
// is a known function of the knobs (§II-B).
func CoresModel(spc *space.Space) Cores {
	return Cores{spc: spc, inst: spc.Lookup(KnobInstances), cores: spc.Lookup(KnobCores)}
}

// Cores is the cost-in-cores objective: it decodes x and returns executor
// instances × cores per executor, and 0 when x does not decode. It is a
// named type rather than a closure: a caller that inlines a constructor
// gets its own copy of the closure, and that copy calls Space.Decode out of
// line, so the decoded values escape to the heap. In Predict, Decode
// inlines and they stay on the stack; MOGD's numeric gradient calls
// Predict 2·D+1 times per start per step. The two knobs' positions are
// looked up once, in CoresModel.
type Cores struct {
	spc         *space.Space
	inst, cores int // variable indexes, -1 when the space lacks the knob
}

// Dim implements model.Model.
func (m Cores) Dim() int { return m.spc.Dim() }

// Predict implements model.Model.
func (m Cores) Predict(x []float64) float64 {
	vals, err := m.spc.Decode(x)
	if err != nil {
		return 0
	}
	return knob(vals, m.inst) * knob(vals, m.cores)
}

// knob returns the raw value at variable index i, and 0 for a missing knob.
func knob(vals space.Values, i int) float64 {
	if i < 0 {
		return 0
	}
	return float64(vals[i])
}
