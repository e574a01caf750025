package udao

import (
	"math/rand"
	"testing"

	"repro/internal/bench/tpcxbb"
	"repro/internal/model"
	"repro/internal/modelserver"
	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/trace"
)

// TestRecurringWorkloadLifecycle exercises the full Fig. 1(a) loop across
// every module: (1) a recurring task first runs with the default
// configuration while traces accumulate; (2) the model server trains
// objective models; (3) MOO computes a Pareto frontier and WUN recommends a
// configuration; (4) the recommendation is measured on the cluster and
// beats the default; (5) new traces arrive, models are updated
// incrementally, and the frontier is recomputed for the next run (§II-B).
func TestRecurringWorkloadLifecycle(t *testing.T) {
	w := tpcxbb.ByID(9)
	spc := spark.BatchSpace()
	cluster := spark.DefaultCluster()

	runner := func(conf space.Values, seed int64) (map[string]float64, []float64, error) {
		m, err := spark.Run(w.Flow, spc, conf, cluster, seed)
		if err != nil {
			return nil, nil, err
		}
		return map[string]float64{
			"latency": m.LatencySec,
			"cores":   m.Cores,
			"cpuhour": m.CPUHour,
		}, m.TraceVector(), nil
	}

	// (1) Trace collection: heuristic sampling plus a BO refinement pass.
	store := trace.NewStore()
	rng := rand.New(rand.NewSource(42))
	confs, err := trace.HeuristicSample(spc, spark.DefaultBatchConf(spc), 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Collect(store, spc, w.Flow.Name, confs, runner, 1); err != nil {
		t.Fatal(err)
	}
	if err := trace.BOSample(store, spc, w.Flow.Name, "latency", runner, 5, rng); err != nil {
		t.Fatal(err)
	}

	// (2) Model training with log-scale targets.
	server := modelserver.New(spc, store, modelserver.Config{Kind: modelserver.GP, LogTargets: true})
	latModel, err := server.Model(w.Flow.Name, "latency")
	if err != nil {
		t.Fatal(err)
	}
	if wm := modelserver.WMAPE(latModel, store.ForWorkload(w.Flow.Name), "latency"); wm > 0.3 {
		t.Fatalf("latency model WMAPE = %v", wm)
	}
	coresModel := spark.CoresModel(spc)

	// (3) MOO + recommendation.
	opt, err := NewOptimizer(spc, []Objective{
		{Name: "latency", Model: latModel},
		{Name: "cores", Model: coresModel},
	}, Options{Probes: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	front, err := opt.ParetoFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 3 {
		t.Fatalf("frontier has %d plans", len(front))
	}
	plan, err := opt.Recommend(WUN, []float64{0.8, 0.2})
	if err != nil {
		t.Fatal(err)
	}

	// (4) Measure: the recommendation must beat the default configuration on
	// the weighted preference (strong latency preference here).
	recM, err := spark.Run(w.Flow, spc, plan.Config, cluster, 777)
	if err != nil {
		t.Fatal(err)
	}
	defM, err := spark.Run(w.Flow, spc, spark.DefaultBatchConf(spc), cluster, 777)
	if err != nil {
		t.Fatal(err)
	}
	if recM.LatencySec > defM.LatencySec*1.1 {
		t.Fatalf("recommendation (%.1fs) notably slower than default (%.1fs)", recM.LatencySec, defM.LatencySec)
	}

	// (5) New traces arrive; the model server serves an updated model and
	// a fresh optimizer recomputes the frontier without error.
	more, err := trace.HeuristicSample(spc, plan.Config, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Collect(store, spc, w.Flow.Name, more, runner, 2); err != nil {
		t.Fatal(err)
	}
	updated, err := server.Model(w.Flow.Name, "latency")
	if err != nil {
		t.Fatal(err)
	}
	opt2, err := NewOptimizer(spc, []Objective{
		{Name: "latency", Model: updated},
		{Name: "cores", Model: coresModel},
	}, Options{Probes: 20, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	front2, err := opt2.ParetoFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(front2) < 3 {
		t.Fatalf("recomputed frontier has %d plans", len(front2))
	}
}

// TestEightObjectiveCatalog verifies the simulator produces every objective
// of the paper's catalog (§II-B: latency, throughput, CPU utilization, IO
// load, network load, cost in cores, cost in CPU-hour, composite cost) and
// that a 3-objective optimization over a subset works end to end.
func TestEightObjectiveCatalog(t *testing.T) {
	w := tpcxbb.ByID(3)
	spc := spark.BatchSpace()
	m, err := spark.Run(w.Flow, spc, spark.DefaultBatchConf(spc), spark.DefaultCluster(), 1)
	if err != nil {
		t.Fatal(err)
	}
	catalog := map[string]float64{
		"latency":  m.LatencySec,
		"cpu_util": m.CPUUtil,
		"io":       m.IOMB,
		"network":  m.NetMB,
		"cores":    m.Cores,
		"cpu_hour": m.CPUHour,
		"cost2":    m.Cost2(),
	}
	for name, v := range catalog {
		if v < 0 {
			t.Fatalf("objective %s = %v < 0", name, v)
		}
	}

	// 3-objective MOO: latency, cores and IO over analytic surrogates.
	latency := model.Func{D: spc.Dim(), F: func(x []float64) float64 {
		vals, _ := spc.Decode(x)
		mm, err := spark.Run(w.Flow, spc, vals, spark.DefaultCluster(), 1)
		if err != nil {
			return 1e9
		}
		return mm.LatencySec
	}}
	cores := model.Func{D: spc.Dim(), F: func(x []float64) float64 {
		vals, _ := spc.Decode(x)
		mm, err := spark.Run(w.Flow, spc, vals, spark.DefaultCluster(), 1)
		if err != nil {
			return 1e9
		}
		return mm.Cores
	}}
	io := model.Func{D: spc.Dim(), F: func(x []float64) float64 {
		vals, _ := spc.Decode(x)
		mm, err := spark.Run(w.Flow, spc, vals, spark.DefaultCluster(), 1)
		if err != nil {
			return 1e9
		}
		return mm.IOMB
	}}
	opt, err := NewOptimizer(spc, []Objective{
		{Name: "latency", Model: latency},
		{Name: "cores", Model: cores},
		{Name: "io", Model: io},
	}, Options{Probes: 14, Seed: 3, Starts: 2, Iters: 20})
	if err != nil {
		t.Fatal(err)
	}
	front, err := opt.ParetoFrontier()
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 2 {
		t.Fatalf("3-objective frontier has %d plans", len(front))
	}
}
