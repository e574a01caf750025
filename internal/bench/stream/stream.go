// Package stream provides the paper's streaming benchmark (§VI "Streaming
// Workloads"): a click-stream analysis suite extended from [15] with 5
// SQL+UDF templates and 1 ML template, parameterized into 63 workloads.
//
// Execution follows Spark Streaming's micro-batch model: every batch
// interval the receiver turns the input stream into blocks (one task per
// block), the job processes the accumulated records, and the system is
// stable only while processing time stays below the batch interval. The
// three streaming objectives are average record latency (to be minimized),
// throughput in records/second (to be maximized — negated for MOO), and
// resource cost in cores (for the 3D experiments).
package stream

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/space"
	"repro/internal/spark"
)

// NumTemplates is the streaming template count.
const NumTemplates = 6

// NumWorkloads is the parameterized workload count.
const NumWorkloads = 63

// Template describes one streaming analytic's per-record costs.
type Template struct {
	Name string
	// CPUPerRecord is CPU µs per record.
	CPUPerRecord float64
	// ShuffleFrac is the fraction of record bytes crossing a shuffle.
	ShuffleFrac float64
	// MemPerRecord is working-set bytes per record.
	MemPerRecord float64
	// RecordBytes is the wire size of one record.
	RecordBytes float64
	// ML marks the iterative model-update template.
	ML bool
}

// Templates returns the 6 templates: 5 click-stream SQL+UDF analytics and
// one streaming ML model update.
func Templates() []Template {
	return []Template{
		{Name: "s1-sessionize", CPUPerRecord: 3.0, ShuffleFrac: 0.8, MemPerRecord: 180, RecordBytes: 140},
		{Name: "s2-funnel", CPUPerRecord: 2.2, ShuffleFrac: 0.5, MemPerRecord: 120, RecordBytes: 110},
		{Name: "s3-topk-pages", CPUPerRecord: 1.4, ShuffleFrac: 0.3, MemPerRecord: 90, RecordBytes: 90},
		{Name: "s4-geo-enrich-udf", CPUPerRecord: 5.0, ShuffleFrac: 0.4, MemPerRecord: 150, RecordBytes: 160},
		{Name: "s5-anomaly-udf", CPUPerRecord: 4.2, ShuffleFrac: 0.6, MemPerRecord: 200, RecordBytes: 130},
		{Name: "s6-ml-update", CPUPerRecord: 8.0, ShuffleFrac: 0.7, MemPerRecord: 320, RecordBytes: 150, ML: true},
	}
}

// ByID returns streaming workload id (0..62): a template named after the
// workload. The suite cycles the templates with per-workload cost and
// record-size jitter.
func ByID(id int) Template {
	if id < 0 || id >= NumWorkloads {
		panic(fmt.Sprintf("stream: workload %d out of range", id))
	}
	ti := id % NumTemplates
	t := Templates()[ti]
	rng := rand.New(rand.NewSource(int64(id)*31337 + 5))
	scale := math.Pow(10, -0.4+0.8*rng.Float64()) // 0.4x .. 2.5x
	t.CPUPerRecord *= scale
	t.MemPerRecord *= 0.7 + 0.6*rng.Float64()
	t.RecordBytes *= 0.8 + 0.4*rng.Float64()
	t.Name = fmt.Sprintf("%s-w%02d", t.Name, id)
	return t
}

// Metrics is the outcome of running a streaming workload at steady state.
type Metrics struct {
	// LatencySec is the average end-to-end record latency: half a batch
	// interval of buffering plus processing (plus queueing when unstable).
	LatencySec float64
	// Throughput is sustained records/second.
	Throughput float64
	// Cores is the allocated cores (cost objective for 3D).
	Cores float64
	// ProcSec is per-batch processing time.
	ProcSec float64
	// Stable is false when processing cannot keep up with the interval.
	Stable bool
	// SpillMB and NetMB mirror the batch trace metrics.
	SpillMB, NetMB float64
}

// TraceVector flattens metrics for workload mapping.
func (m Metrics) TraceVector() []float64 {
	stable := 0.0
	if m.Stable {
		stable = 1
	}
	return []float64{m.LatencySec, m.Throughput, m.Cores, m.ProcSec, stable, m.SpillMB, m.NetMB}
}

// Runner returns a trace.Runner for w on cluster cl: each run records
// latency, throughput and cores, and the run's TraceVector.
func Runner(w Template, spc *space.Space, cl spark.Cluster) func(space.Values, int64) (map[string]float64, []float64, error) {
	return func(conf space.Values, seed int64) (map[string]float64, []float64, error) {
		m, err := Run(w, spc, conf, cl, seed)
		if err != nil {
			return nil, nil, err
		}
		return map[string]float64{"latency": m.LatencySec, "throughput": m.Throughput, "cores": m.Cores}, m.TraceVector(), nil
	}
}

// Run simulates the workload at steady state under the configuration.
// Deterministic in (workload, conf, seed).
func Run(w Template, spc *space.Space, conf space.Values, cl spark.Cluster, seed int64) (Metrics, error) {
	get := func(name string, def float64) float64 {
		v, err := spc.Get(conf, name)
		if err != nil {
			return def
		}
		return v
	}
	interval := get(spark.KnobBatchInterval, 5)
	blockMS := get(spark.KnobBlockInterval, 200)
	rate := get(spark.KnobInputRate, 100_000)
	parallelism := get(spark.KnobParallelism, 48)
	executors := get(spark.KnobInstances, 4)
	coresPerExec := get(spark.KnobCores, 2)
	memGB := get(spark.KnobMemory, 4)
	memFraction := get(spark.KnobMemFraction, 0.6)
	compress := get(spark.KnobCompress, 1) == 1
	msifMB := get(spark.KnobMaxSizeInFlight, 48)

	totalCores := executors * coresPerExec
	if totalCores < 1 || interval <= 0 {
		return Metrics{}, fmt.Errorf("stream: invalid configuration")
	}
	records := rate * interval

	// Receiver blocks define map-side tasks; the reduce side follows
	// spark.default.parallelism.
	blocks := math.Max(1, math.Floor(interval*1000/blockMS))
	mapTasks := blocks
	reduceTasks := parallelism

	rng := rand.New(rand.NewSource(seed ^ int64(spark.ConfHash(w.Name, conf))))
	noise := math.Exp(rng.NormFloat64() * cl.NoiseStd)

	// Map phase: per-record CPU over blocks, 60/40 split map/reduce.
	mapCPU := records * w.CPUPerRecord * 0.6 * 1e-6 / cl.CoreSpeed
	redCPU := records * w.CPUPerRecord * 0.4 * 1e-6 / cl.CoreSpeed
	if w.ML {
		redCPU *= 3 // iterative model update dominates the reduce side
	}

	// GC pressure from an over-aggressive memory fraction, as in batch.
	gcFactor := 1 + math.Max(0, memFraction-0.75)*1.6
	mapCPU *= gcFactor
	redCPU *= gcFactor

	perTaskOverhead := 0.004 // 4 ms scheduling per task

	mapWaves := math.Ceil(mapTasks / totalCores)
	mapTask := mapCPU/mapTasks + perTaskOverhead
	mapSec := mapWaves * mapTask

	// Shuffle between map and reduce.
	shuffleMB := records * w.RecordBytes * w.ShuffleFrac / (1 << 20)
	if compress {
		shuffleMB *= 0.35
		redCPU += records * 0.15 * 1e-6 / cl.CoreSpeed
	}
	inFlightEff := msifMB / (msifMB + 24)
	netPerTask := cl.NetMBps / coresPerExec
	fetchSec := (shuffleMB / reduceTasks) / (netPerTask * inFlightEff)

	// Reduce-side memory pressure.
	availMBPerTask := memGB * 1024 * memFraction / coresPerExec
	stateMBPerTask := records * w.MemPerRecord / reduceTasks / (1 << 20)
	spillMB := 0.0
	spillSec := 0.0
	if stateMBPerTask > availMBPerTask {
		spillMB = (stateMBPerTask - availMBPerTask) * reduceTasks
		spillSec = 2 * (stateMBPerTask - availMBPerTask) / cl.DiskMBps
		redCPU *= 1.25
	}

	redWaves := math.Ceil(reduceTasks / totalCores)
	redTask := redCPU/reduceTasks + perTaskOverhead + fetchSec + spillSec
	redSec := redWaves * redTask

	proc := (mapSec + redSec + 0.1) * noise // 0.1 s per-batch job submission

	m := Metrics{
		Cores:   totalCores,
		ProcSec: proc,
		SpillMB: spillMB,
		NetMB:   shuffleMB,
	}
	if proc <= interval {
		m.Stable = true
		m.LatencySec = interval/2 + proc
		m.Throughput = rate
	} else {
		// Unstable: batches queue; latency grows with the backlog and the
		// sustained throughput degrades to the service rate.
		backlog := proc - interval
		m.LatencySec = interval/2 + proc + 8*backlog
		m.Throughput = rate * interval / proc
	}
	return m, nil
}
