package spark

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/space"
)

// Cluster describes the simulated hardware's speeds, defaulting to the
// paper's testbed: 20 CentOS nodes, 2×16-core Xeon Gold 6130, 768 GB RAM,
// RAID disks (§VI "Hardware"). The simulator checks no capacity: the knob
// ranges keep a run within 14 executors of 4 cores and 16 GB.
type Cluster struct {
	// CoreSpeed scales CPU time (1.0 = baseline core).
	CoreSpeed float64
	// DiskMBps and NetMBps are per-executor effective bandwidths.
	DiskMBps, NetMBps float64
	// NoiseStd is the σ of the multiplicative log-normal noise applied per
	// stage (real clusters show 5–15% run-to-run variation).
	NoiseStd float64
}

// DefaultCluster returns the paper-testbed-like cluster.
func DefaultCluster() Cluster {
	return Cluster{
		CoreSpeed: 1.0,
		DiskMBps:  500,
		NetMBps:   1100,
		NoiseStd:  0.08,
	}
}

// StageMetric is the per-stage slice of a run's trace.
type StageMetric struct {
	Tasks         int
	TaskSec       float64 // average task duration
	CPUSec        float64 // total CPU seconds across tasks
	ShuffleReadMB float64
	SpillMB       float64
	FetchWaitSec  float64 // total fetch wait across tasks
}

// Metrics is the outcome of one simulated job run — the system-level trace
// the model server collects (§II-B: time measurements, bytes read/written,
// fetch wait time, plus observed objective values).
type Metrics struct {
	LatencySec   float64
	Cores        float64 // resource cost in CPU cores (objective 6)
	CPUHour      float64 // latency × cores / 3600 (objective 7)
	CPUUtil      float64 // fraction of allocated core-time doing work
	IOMB         float64 // disk traffic incl. scan, shuffle files and spill
	NetMB        float64 // network traffic (shuffle fetch + broadcast)
	ShuffleMB    float64
	SpillMB      float64
	FetchWaitSec float64
	GCSec        float64
	Stages       []StageMetric
}

// Cost2 is the paper's Expt-4 composite cost: a weighted sum of CPU-hour and
// IO cost, in milli-dollar-like units (w1·CPUHour + w2·IO).
func (m Metrics) Cost2() float64 {
	return 50*m.CPUHour + 0.02*m.IOMB
}

// traceStages is the number of leading stages flattened into TraceVector.
const traceStages = 6

// TraceVector flattens the metrics into a fixed-order feature vector for
// workload mapping (OtterTune's metric distance) and model diagnostics: 10
// job-level metrics followed by 6 per-stage slices of 6 metrics each
// (padded with zeros past the last stage) — a scaled-down analogue of the
// paper's 360 runtime metrics per trace.
func (m Metrics) TraceVector() []float64 {
	out := make([]float64, 0, 10+traceStages*6)
	out = append(out,
		m.LatencySec, m.Cores, m.CPUHour, m.CPUUtil, m.IOMB, m.NetMB,
		m.ShuffleMB, m.SpillMB, m.FetchWaitSec, m.GCSec,
	)
	for i := 0; i < traceStages; i++ {
		if i < len(m.Stages) {
			st := m.Stages[i]
			out = append(out, float64(st.Tasks), st.TaskSec, st.CPUSec,
				st.ShuffleReadMB, st.SpillMB, st.FetchWaitSec)
		} else {
			out = append(out, 0, 0, 0, 0, 0, 0)
		}
	}
	return out
}

// Runner returns a trace.Runner for dataflow df on cluster cl: each run
// records latency, cores and cost2, and the run's TraceVector.
func Runner(df *Dataflow, spc *space.Space, cl Cluster) func(space.Values, int64) (map[string]float64, []float64, error) {
	return func(conf space.Values, seed int64) (map[string]float64, []float64, error) {
		m, err := Run(df, spc, conf, cl, seed)
		if err != nil {
			return nil, nil, err
		}
		return map[string]float64{"latency": m.LatencySec, "cores": m.Cores, "cost2": m.Cost2()}, m.TraceVector(), nil
	}
}

// Run simulates the dataflow under the configuration and returns its trace.
// Runs are deterministic in (dataflow, configuration, seed).
func Run(df *Dataflow, spc *space.Space, conf space.Values, cl Cluster, seed int64) (Metrics, error) {
	if err := df.Validate(); err != nil {
		return Metrics{}, err
	}
	get := func(name string, def float64) float64 {
		v, err := spc.Get(conf, name)
		if err != nil {
			return def
		}
		return v
	}
	executors := get(KnobInstances, 4)
	coresPerExec := get(KnobCores, 2)
	memGB := get(KnobMemory, 4)
	parallelism := get(KnobParallelism, 48)
	memFraction := get(KnobMemFraction, 0.6)
	compress := get(KnobCompress, 1) == 1
	msifMB := get(KnobMaxSizeInFlight, 48)
	bypassThreshold := get(KnobBypassMerge, 200)
	batchSize := get(KnobBatchSize, 10000)
	maxPartitionMB := get(KnobMaxPartition, 128)
	broadcastMB := get(KnobBroadcast, 10)
	shufflePartitions := get(KnobShufflePart, parallelism)

	totalCores := executors * coresPerExec
	if totalCores < 1 {
		return Metrics{}, fmt.Errorf("spark: configuration allocates no cores")
	}

	rng := rand.New(rand.NewSource(seed ^ int64(ConfHash(df.Name, conf))))
	c := df.compile(broadcastMB)

	// Columnar batch-size efficiency: too-small batches pay per-batch
	// overhead, too-large batches pay cache/GC pressure. Optimum ~10k rows.
	lb := math.Log2(batchSize / 10000)
	batchFactor := 1 + 0.04*lb*lb

	// memory.fraction beyond ~0.75 squeezes the JVM's own heap: GC pressure.
	gcFactor := 1 + math.Max(0, memFraction-0.75)*1.6

	availMBPerTask := memGB * 1024 * memFraction / coresPerExec

	var out Metrics
	out.Cores = totalCores
	finish := make([]float64, len(c.stages))

	for _, st := range c.stages {
		// Partitioning.
		var tasks float64
		if st.scanStage {
			inputMB := st.inputRows * df.RowBytes / (1 << 20)
			tasks = math.Ceil(inputMB / maxPartitionMB)
		} else {
			tasks = shufflePartitions
		}
		if !st.scanStage && st.rdd {
			// RDD-level stages (UDF/ML) follow spark.default.parallelism.
			tasks = parallelism
		}
		if tasks < 1 {
			tasks = 1
		}
		rowsPerTask := st.inputRows / tasks

		// CPU time.
		cpuSec := rowsPerTask * st.cpuPerRow * 1e-6 / cl.CoreSpeed
		if st.scanStage {
			cpuSec *= batchFactor
		}
		cpuSec *= gcFactor

		// Memory pressure and spill.
		taskMemMB := rowsPerTask * st.memPerRow / (1 << 20)
		spillMB := 0.0
		spillSec := 0.0
		if taskMemMB > availMBPerTask {
			spillMB = taskMemMB - availMBPerTask
			spillSec = 2 * spillMB / cl.DiskMBps // write + re-read
			cpuSec *= 1.25                       // serialization overhead
		}

		// Shuffle read.
		fetchSec := 0.0
		shuffleReadMB := 0.0
		if st.shuffleIn {
			totalMB := st.inputRows * df.RowBytes / (1 << 20)
			if compress {
				totalMB *= 0.35
				cpuSec += rowsPerTask * 0.15 * 1e-6 / cl.CoreSpeed // decompress
			}
			shuffleReadMB = totalMB
			perTaskMB := totalMB / tasks
			// The executor NIC is shared by its concurrent tasks; small
			// maxSizeInFlight wastes round trips.
			netPerTask := cl.NetMBps / coresPerExec
			inFlightEff := msifMB / (msifMB + 24)
			fetchSec = perTaskMB / (netPerTask * inFlightEff)
		}

		// Shuffle write (pessimistically: every non-final stage feeds one).
		writeSec := 0.0
		shuffleWriteMB := 0.0
		if st.id != len(c.stages)-1 {
			outMB := st.outRows * df.RowBytes / (1 << 20)
			if compress {
				outMB *= 0.35
				cpuSec += (st.outRows / tasks) * 0.25 * 1e-6 / cl.CoreSpeed // compress
			}
			shuffleWriteMB = outMB
			perTaskMB := outMB / tasks
			writeSec = perTaskMB / cl.DiskMBps
			// Sort-merge shuffle write unless the bypass applies.
			downstream := shufflePartitions
			if downstream > bypassThreshold || st.sortHeavy {
				writeSec += (st.outRows / tasks) * 0.08 * math.Log2(1+downstream) * 1e-6 / cl.CoreSpeed
			}
		}

		// Broadcast build: ship the small side to every executor once.
		broadcastSec := 0.0
		if st.broadcast {
			broadcastSec = st.broadcastMB * executors / cl.NetMBps
			out.NetMB += st.broadcastMB * executors
		}

		taskSec := cpuSec + spillSec + fetchSec + writeSec
		// Log-normal stage noise.
		noise := math.Exp(rng.NormFloat64() * cl.NoiseStd)
		taskSec *= noise

		// Greedy-scheduling makespan bound: total work spread over the
		// allocated cores plus the overhang of the last task (skew) — small
		// tasks pack tightly, coarse tasks leave cores idle at the tail —
		// plus per-task driver scheduling overhead. This yields the
		// workload-dependent parallelism sweet spot Spark exhibits.
		schedOverhead := 0.05 + 0.0008*tasks
		stageSec := tasks*taskSec/totalCores + 0.8*taskSec + schedOverhead + broadcastSec

		// Critical-path accumulation.
		ready := 0.0
		for _, dep := range st.deps {
			if finish[dep] > ready {
				ready = finish[dep]
			}
		}
		finish[st.id] = ready + stageSec

		out.Stages = append(out.Stages, StageMetric{
			Tasks:         int(tasks),
			TaskSec:       taskSec,
			CPUSec:        cpuSec * tasks,
			ShuffleReadMB: shuffleReadMB,
			SpillMB:       spillMB * tasks,
			FetchWaitSec:  fetchSec * tasks,
		})
		out.ShuffleMB += shuffleReadMB + shuffleWriteMB
		out.SpillMB += spillMB * tasks
		out.NetMB += shuffleReadMB
		out.IOMB += shuffleWriteMB + 2*spillMB*tasks
		out.FetchWaitSec += fetchSec * tasks
		out.GCSec += cpuSec * tasks * (gcFactor - 1) / gcFactor
	}

	// Scan IO.
	out.IOMB += df.InputRows * df.RowBytes / (1 << 20)

	// Executor startup and job submission overhead.
	startup := 1.2 + 0.15*executors
	longest := 0.0
	for _, f := range finish {
		if f > longest {
			longest = f
		}
	}
	out.LatencySec = startup + longest
	out.CPUHour = out.Cores * out.LatencySec / 3600

	busy := 0.0
	for _, sm := range out.Stages {
		busy += sm.CPUSec
	}
	out.CPUUtil = math.Min(1, busy/(out.LatencySec*out.Cores))
	return out, nil
}

// ConfHash derives a stable 64-bit hash from the workload name and the
// configuration so noise is deterministic per (workload, config). The
// streaming simulator seeds its noise with it too.
func ConfHash(name string, conf space.Values) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	for _, v := range conf {
		var b [8]byte
		u := math.Float64bits(float64(v))
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
