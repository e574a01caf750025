// Package experiments regenerates every table and figure of the paper's
// performance evaluation (§VI and Appendix C) on the simulated substrate:
//
//   - Expt 1 (Fig. 4): PF vs WS/NC/Evo/qEHVI/PESM on 258 batch workloads
//   - Expt 2 (Fig. 5, Fig. 8): the same on 63 streaming workloads, 2D and 3D
//   - Expt 3 (Fig. 6a–d): end-to-end vs OtterTune under accurate models
//   - Expt 4 (Fig. 6e–f, Fig. 9): the same under inaccurate learned models
//   - Expt 5 (Fig. 6g–h): model accuracy vs performance-improvement rate
//   - the §V solver table (MOGD vs the exact Knitro stand-in) and the
//     headline 2–50× speedup table
//
// Each experiment has a quick configuration (used by `go test -bench`) and a
// full configuration (cmd/udao-bench); both print the same row/series
// structure the paper's figures plot. Absolute numbers differ from the
// paper (the substrate is a simulator, not the authors' 20-node cluster);
// EXPERIMENTS.md records the shape comparison.
package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/bench/stream"
	"repro/internal/bench/tpcxbb"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/model/dnn"
	"repro/internal/model/gp"
	"repro/internal/modelserver"
	"repro/internal/moo"
	"repro/internal/objective"
	"repro/internal/problem"
	"repro/internal/solver/exact"
	"repro/internal/solver/mogd"
	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/trace"
)

// ModelKind selects the learned model family for an experiment.
type ModelKind int

// Model families.
const (
	KindGP ModelKind = iota
	KindDNN
)

// String implements fmt.Stringer.
func (k ModelKind) String() string {
	if k == KindDNN {
		return "DNN"
	}
	return "GP"
}

// Objective names shared across experiments.
const (
	ObjLatency    = "latency"
	ObjCores      = "cores"
	ObjCost2      = "cost2"
	ObjThroughput = "throughput"
)

// Lab caches trained models and traces so experiments and benchmarks do not
// repeat the expensive sampling/training work.
type Lab struct {
	mu    sync.Mutex
	cache map[string]*Setup

	// Cluster is the simulated hardware (DefaultCluster by default).
	Cluster spark.Cluster
	// Samples is the per-workload training-sample count (default 60 — the
	// paper samples "100's" per offline workload; 60 keeps benches fast
	// while giving WMAPE comparable to the paper's error rates).
	Samples int
	// DNNCfg and GPCfg configure model training.
	DNNCfg dnn.Config
	GPCfg  gp.Config
	Seed   int64
}

// NewLab builds a lab with defaults tuned for experiment throughput.
func NewLab(seed int64) *Lab {
	return &Lab{
		cache:   map[string]*Setup{},
		Cluster: spark.DefaultCluster(),
		Samples: 60,
		DNNCfg:  dnn.Config{Hidden: []int{48, 48}, Epochs: 120},
		GPCfg:   gp.Config{MLEIters: 40},
		Seed:    seed,
	}
}

// Setup is everything an experiment needs for one workload: minimization
// models, the shared objective-space box against which uncertain space is
// measured, the training traces, and a hook to measure a configuration on
// the simulator ("actual" values).
type Setup struct {
	Workload string
	Space    *space.Space
	// Models are minimization-oriented (throughput negated), ordered as
	// Names.
	Models []model.Model
	Names  []string
	// Utopia and Nadir bound the objective space for uncertain-space
	// measurements, derived from a Halton sweep of the models.
	Utopia, Nadir objective.Point
	// Entries are the training traces.
	Entries []trace.Entry
	// Measure runs a configuration on the simulator and returns the true
	// objective values (same orientation as Models).
	Measure func(conf space.Values) (objective.Point, error)
	// DefaultConf is the platform default configuration.
	DefaultConf space.Values
	// ExpertConf is the Expt-5 manual expert configuration.
	ExpertConf space.Values
}

// evaluator builds a fresh evaluation seam over the setup's models and
// lattice, with uncertainty multiplier alpha. Every run gets its own memo and
// evaluation count, so the counts a method reports are its own.
func (s *Setup) evaluator(alpha float64) *problem.Evaluator {
	return problem.NewEvaluator(problem.MustNew(s.Models, s.Space), problem.Options{Alpha: alpha})
}

// pf runs one Progressive Frontier computation to the probe budget — PF-AP
// when parallel, PF-AS otherwise — over MOGD with the harness's search
// effort (6 starts × 80 Adam iterations, seeded like the run) on a fresh
// evaluator with uncertainty multiplier alpha.
func (s *Setup) pf(parallel bool, probes int, alpha float64, opt core.Options) ([]objective.Solution, error) {
	mg, err := mogd.New(s.evaluator(alpha), mogd.Config{Starts: 6, Iters: 80, Seed: opt.Seed})
	if err != nil {
		return nil, err
	}
	return core.NewRun(mg, parallel, opt).Expand(probes)
}

// BatchSetup returns (cached) models and plumbing for batch workload id with
// objectives (latency, cores). secondCost2 replaces cores with the learned
// composite cost2 objective.
func (l *Lab) BatchSetup(id int, kind ModelKind, useCost2 bool) (*Setup, error) {
	key := fmt.Sprintf("batch-%d-%v-%v", id, kind, useCost2)
	l.mu.Lock()
	if s, ok := l.cache[key]; ok {
		l.mu.Unlock()
		return s, nil
	}
	l.mu.Unlock()

	w := tpcxbb.ByID(id)
	spc := spark.BatchSpace()
	runner := spark.Runner(w.Flow, spc, l.Cluster)

	st := trace.NewStore()
	rng := rand.New(rand.NewSource(l.Seed + int64(id)*97))
	confs, err := trace.HeuristicSample(spc, spark.DefaultBatchConf(spc), l.Samples, rng)
	if err != nil {
		return nil, err
	}
	if err := trace.Collect(st, spc, w.Flow.Name, confs, runner, l.Seed); err != nil {
		return nil, err
	}

	msKind := modelserver.GP
	if kind == KindDNN {
		msKind = modelserver.DNN
	}
	srv := modelserver.New(spc, st, modelserver.Config{Kind: msKind, DNNCfg: l.DNNCfg, GPCfg: l.GPCfg, LogTargets: true})
	latModel, err := srv.Model(w.Flow.Name, ObjLatency)
	if err != nil {
		return nil, err
	}

	names := []string{ObjLatency, ObjCores}
	models := []model.Model{latModel, spark.CoresModel(spc)}
	if useCost2 {
		c2, err := srv.Model(w.Flow.Name, ObjCost2)
		if err != nil {
			return nil, err
		}
		names[1] = ObjCost2
		models[1] = c2
	}

	setup := &Setup{
		Workload:    w.Flow.Name,
		Space:       spc,
		Models:      models,
		Names:       names,
		Entries:     st.ForWorkload(w.Flow.Name),
		DefaultConf: spark.DefaultBatchConf(spc),
		ExpertConf:  spark.ExpertConfig(spc, w.Flow),
	}
	setup.Utopia, setup.Nadir = modelBox(models, spc, 256)
	setup.Measure = func(conf space.Values) (objective.Point, error) {
		m, err := spark.Run(w.Flow, spc, conf, l.Cluster, l.Seed+555)
		if err != nil {
			return nil, err
		}
		second := m.Cores
		if useCost2 {
			second = m.Cost2()
		}
		return objective.Point{m.LatencySec, second}, nil
	}

	l.mu.Lock()
	l.cache[key] = setup
	l.mu.Unlock()
	return setup, nil
}

// StreamSetup returns models for streaming workload id: 2D (latency,
// −throughput) or 3D (+cores).
func (l *Lab) StreamSetup(id int, kind ModelKind, threeD bool) (*Setup, error) {
	key := fmt.Sprintf("stream-%d-%v-%v", id, kind, threeD)
	l.mu.Lock()
	if s, ok := l.cache[key]; ok {
		l.mu.Unlock()
		return s, nil
	}
	l.mu.Unlock()

	w := stream.ByID(id)
	spc := spark.StreamSpace()
	runner := stream.Runner(w, spc, l.Cluster)

	st := trace.NewStore()
	rng := rand.New(rand.NewSource(l.Seed + int64(id)*89 + 7))
	confs, err := trace.HeuristicSample(spc, spark.DefaultStreamConf(spc), l.Samples, rng)
	if err != nil {
		return nil, err
	}
	if err := trace.Collect(st, spc, w.Name, confs, runner, l.Seed); err != nil {
		return nil, err
	}

	msKind := modelserver.GP
	if kind == KindDNN {
		msKind = modelserver.DNN
	}
	srv := modelserver.New(spc, st, modelserver.Config{Kind: msKind, DNNCfg: l.DNNCfg, GPCfg: l.GPCfg, LogTargets: true})
	latModel, err := srv.Model(w.Name, ObjLatency)
	if err != nil {
		return nil, err
	}
	thrModel, err := srv.Model(w.Name, ObjThroughput)
	if err != nil {
		return nil, err
	}

	names := []string{ObjLatency, ObjThroughput}
	models := []model.Model{latModel, model.Negated{M: thrModel}}
	if threeD {
		names = append(names, ObjCores)
		models = append(models, spark.CoresModel(spc))
	}

	setup := &Setup{
		Workload:    w.Name,
		Space:       spc,
		Models:      models,
		Names:       names,
		Entries:     st.ForWorkload(w.Name),
		DefaultConf: spark.DefaultStreamConf(spc),
	}
	setup.Utopia, setup.Nadir = modelBox(models, spc, 256)
	setup.Measure = func(conf space.Values) (objective.Point, error) {
		m, err := stream.Run(w, spc, conf, l.Cluster, l.Seed+555)
		if err != nil {
			return nil, err
		}
		p := objective.Point{m.LatencySec, -m.Throughput}
		if threeD {
			p = append(p, m.Cores)
		}
		return p, nil
	}

	l.mu.Lock()
	l.cache[key] = setup
	l.mu.Unlock()
	return setup, nil
}

// modelBox sweeps the models over a Halton sample of the lattice to bound
// the objective space — the shared box all methods' uncertain-space
// measurements use. The sweep runs through a batch evaluator, so the sample
// is computed in parallel and lattice collisions from rounding hit the memo.
func modelBox(models []model.Model, spc *space.Space, samples int) (utopia, nadir objective.Point) {
	ev := problem.NewEvaluator(problem.MustNew(models, spc), problem.Options{})
	var xs [][]float64
	x := make([]float64, spc.Dim())
	for i := 0; i < samples; i++ {
		for d := range x {
			x[d] = exact.Halton(i, d)
		}
		rx, err := spc.Round(x)
		if err != nil {
			continue
		}
		xs = append(xs, rx)
	}
	return objective.Bounds(ev.EvalBatch(xs))
}

// SeriesPoint is one sample of a method's uncertain-space trajectory.
type SeriesPoint struct {
	Elapsed   time.Duration
	Uncertain float64
	Points    int
}

// MethodResult is one method's run on one workload.
type MethodResult struct {
	Method      string
	Series      []SeriesPoint
	Frontier    []objective.Point
	TimeToFirst time.Duration // time to the first non-empty frontier
	Total       time.Duration
}

// UncertainAt interpolates the uncertain fraction at elapsed time t
// (step-wise: the value of the latest snapshot at or before t; 1.0 before
// the first).
func (r MethodResult) UncertainAt(t time.Duration) float64 {
	u := 1.0
	for _, p := range r.Series {
		if p.Elapsed > t {
			break
		}
		u = p.Uncertain
	}
	return u
}

// solutionsToPoints extracts objective points.
func solutionsToPoints(sols []objective.Solution) []objective.Point {
	out := make([]objective.Point, len(sols))
	for i := range sols {
		out[i] = sols[i].F
	}
	return out
}

// RunPF runs PF-AP (parallel=true) or PF-AS on the setup, recording the
// uncertain-space trajectory against the setup's shared box.
func (l *Lab) RunPF(setup *Setup, parallel bool, probes int, seed int64) (MethodResult, error) {
	name := "PF-AS"
	if parallel {
		name = "PF-AP"
	}
	res := MethodResult{Method: name}
	start := time.Now()
	front, err := setup.pf(parallel, probes, 0, core.Options{
		Seed: seed,
		OnProgress: func(s core.Snapshot) {
			u := metrics.UncertainFraction(solutionsToPoints(s.Frontier), setup.Utopia, setup.Nadir)
			res.Series = append(res.Series, SeriesPoint{Elapsed: s.Elapsed, Uncertain: u, Points: len(s.Frontier)})
			if res.TimeToFirst == 0 && len(s.Frontier) > 0 {
				res.TimeToFirst = s.Elapsed
			}
		},
	})
	if err != nil {
		return MethodResult{}, err
	}
	res.Total = time.Since(start)
	res.Frontier = solutionsToPoints(front)
	return res, nil
}

// RunBaseline runs an incremental moo baseline (one that legitimately emits
// growing frontiers as it works, like qEHVI's one-point-at-a-time loop),
// recording its trajectory.
func (l *Lab) RunBaseline(setup *Setup, m moo.Method, points int, seed int64) (MethodResult, error) {
	res := MethodResult{Method: m.Name()}
	start := time.Now()
	front, err := m.Run(moo.Options{
		Points: points,
		Seed:   seed,
		OnProgress: func(elapsed time.Duration, frontier []objective.Solution) {
			u := metrics.UncertainFraction(solutionsToPoints(frontier), setup.Utopia, setup.Nadir)
			res.Series = append(res.Series, SeriesPoint{Elapsed: elapsed, Uncertain: u, Points: len(frontier)})
			if res.TimeToFirst == 0 && len(frontier) > 0 {
				res.TimeToFirst = elapsed
			}
		},
	})
	if err != nil {
		return MethodResult{}, err
	}
	res.Total = time.Since(start)
	res.Frontier = solutionsToPoints(front)
	return res, nil
}

// RunLadder reruns a restart-based baseline at increasing probe budgets,
// charging cumulative wall-clock — the paper's protocol for WS, NC, Evo and
// PESM (§VI-A: each is "requested to generate increasingly more Pareto
// points (10, 20, ..., 200) as more computing time is invested"; NC in
// particular must restart from scratch for a larger point count). A frontier
// exists only when a rung completes.
func (l *Lab) RunLadder(setup *Setup, factory func() moo.Method, points int, seed int64) (MethodResult, error) {
	budgets := ladderBudgets(points)
	var res MethodResult
	var cumulative time.Duration
	for i, b := range budgets {
		m := factory()
		if res.Method == "" {
			res.Method = m.Name()
		}
		start := time.Now()
		front, err := m.Run(moo.Options{Points: b, Seed: seed + int64(i)*977})
		if err != nil {
			return MethodResult{}, err
		}
		cumulative += time.Since(start)
		pts := solutionsToPoints(front)
		u := metrics.UncertainFraction(pts, setup.Utopia, setup.Nadir)
		res.Series = append(res.Series, SeriesPoint{Elapsed: cumulative, Uncertain: u, Points: len(pts)})
		if res.TimeToFirst == 0 && len(pts) > 0 {
			res.TimeToFirst = cumulative
		}
		res.Frontier = pts
	}
	res.Total = cumulative
	return res, nil
}

// ladderBudgets scales the paper's 10/20/30/40/50 probe ladder to the
// requested maximum.
func ladderBudgets(points int) []int {
	if points <= 2 {
		return []int{points}
	}
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1}
	var out []int
	prev := 0
	for _, f := range fracs {
		b := int(float64(points)*f + 0.5)
		if b < 2 {
			b = 2
		}
		if b > prev {
			out = append(out, b)
			prev = b
		}
	}
	return out
}
