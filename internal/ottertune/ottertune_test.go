package ottertune

import (
	"math/rand"
	"testing"

	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/trace"
)

// flows: two distinct workload shapes — CPU-light aggregation vs UDF-heavy.
func flows() map[string]*spark.Dataflow {
	agg := spark.Chain("agg", 3e6, 100,
		spark.Operator{Kind: spark.OpScan, Selectivity: 1, CostPerRow: 1},
		spark.Operator{Kind: spark.OpExchange, Selectivity: 1, CostPerRow: 0.1},
		spark.Operator{Kind: spark.OpAggregate, Selectivity: 0.01, CostPerRow: 0.5, MemPerRow: 64},
	)
	udf := spark.Chain("udf", 2e6, 120,
		spark.Operator{Kind: spark.OpScan, Selectivity: 1, CostPerRow: 0.5},
		spark.Operator{Kind: spark.OpExchange, Selectivity: 1, CostPerRow: 0.1},
		spark.Operator{Kind: spark.OpUDF, Selectivity: 0.8, CostPerRow: 6, MemPerRow: 96},
	)
	return map[string]*spark.Dataflow{"agg": agg, "udf": udf}
}

func runner(spc *space.Space, df *spark.Dataflow) trace.Runner {
	cl := spark.DefaultCluster()
	return func(conf space.Values, seed int64) (map[string]float64, []float64, error) {
		m, err := spark.Run(df, spc, conf, cl, seed)
		if err != nil {
			return nil, nil, err
		}
		return map[string]float64{"latency": m.LatencySec, "cores": m.Cores}, m.TraceVector(), nil
	}
}

func buildTuner(t *testing.T) (*Tuner, *space.Space, map[string]*spark.Dataflow) {
	t.Helper()
	spc := spark.BatchSpace()
	hist := trace.NewStore()
	rng := rand.New(rand.NewSource(1))
	for name, df := range flows() {
		confs, err := trace.HeuristicSample(spc, spark.DefaultBatchConf(spc), 40, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Collect(hist, spc, name, confs, runner(spc, df), 1); err != nil {
			t.Fatal(err)
		}
	}
	return &Tuner{Spc: spc, History: hist, Candidates: 512, Seed: 2}, spc, flows()
}

// observe samples a few configurations of the target flow (the paper's 6–30
// online samples).
func observe(t *testing.T, spc *space.Space, df *spark.Dataflow, n int) []trace.Entry {
	t.Helper()
	st := trace.NewStore()
	rng := rand.New(rand.NewSource(9))
	confs, err := trace.HeuristicSample(spc, spark.DefaultBatchConf(spc), n, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Collect(st, spc, "target", confs, runner(spc, df), 5); err != nil {
		t.Fatal(err)
	}
	return st.ForWorkload("target")
}

func TestMapWorkloadPicksSimilar(t *testing.T) {
	tuner, spc, fs := buildTuner(t)
	// Target: a slightly scaled copy of the UDF flow — must map to "udf".
	target := spark.Chain("target", 2.2e6, 120,
		spark.Operator{Kind: spark.OpScan, Selectivity: 1, CostPerRow: 0.5},
		spark.Operator{Kind: spark.OpExchange, Selectivity: 1, CostPerRow: 0.1},
		spark.Operator{Kind: spark.OpUDF, Selectivity: 0.8, CostPerRow: 6.5, MemPerRow: 96},
	)
	obs := observe(t, spc, target, 8)
	mapped, err := tuner.MapWorkload(obs)
	if err != nil {
		t.Fatal(err)
	}
	if mapped != "udf" {
		t.Fatalf("mapped to %q, want udf", mapped)
	}
	_ = fs
}

func TestMapWorkloadErrors(t *testing.T) {
	spc := spark.BatchSpace()
	tuner := &Tuner{Spc: spc, History: trace.NewStore()}
	if _, err := tuner.MapWorkload(nil); err == nil {
		t.Fatal("expected error for empty history")
	}
	tuner2, _, _ := buildTuner(t)
	if _, err := tuner2.MapWorkload(nil); err == nil {
		t.Fatal("expected error for no observations")
	}
}

func TestRecommendReducesWeightedObjective(t *testing.T) {
	tuner, spc, fs := buildTuner(t)
	df := fs["agg"]
	obs := observe(t, spc, df, 10)
	conf, gps, err := tuner.Recommend(obs, []string{"latency", "cores"}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(gps) != 2 {
		t.Fatalf("gps = %d", len(gps))
	}
	// Measure the recommendation and compare against the default config.
	run := runner(spc, df)
	rec, _, err := run(conf, 100)
	if err != nil {
		t.Fatal(err)
	}
	def, _, err := run(spark.DefaultBatchConf(spc), 100)
	if err != nil {
		t.Fatal(err)
	}
	// The weighted score (normalized by observed ranges) should not be
	// clearly worse than the default configuration's.
	score := func(m map[string]float64) float64 {
		return 0.5*m["latency"]/def["latency"] + 0.5*m["cores"]/def["cores"]
	}
	if score(rec) > score(def)*1.3 {
		t.Fatalf("recommendation much worse than default: %v vs %v", score(rec), score(def))
	}
}

func TestRecommendValidatesWeights(t *testing.T) {
	tuner, spc, fs := buildTuner(t)
	obs := observe(t, spc, fs["agg"], 5)
	if _, _, err := tuner.Recommend(obs, []string{"latency"}, []float64{0.5, 0.5}); err == nil {
		t.Fatal("expected error for weight/objective mismatch")
	}
	if _, _, err := tuner.Recommend(obs, []string{"nope"}, []float64{1}); err == nil {
		t.Fatal("expected error for unknown objective")
	}
}

// TestWeightInsensitivity documents the paper's observation (Expt 3): for
// most jobs OtterTune's recommendation barely moves between (0.5,0.5) and
// (0.9,0.1) because the weighted method cannot trace the frontier.
func TestWeightInsensitivity(t *testing.T) {
	tuner, spc, fs := buildTuner(t)
	obs := observe(t, spc, fs["agg"], 10)
	confA, _, err := tuner.Recommend(obs, []string{"latency", "cores"}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	confB, _, err := tuner.Recommend(obs, []string{"latency", "cores"}, []float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	coresA, _ := spc.Get(confA, spark.KnobInstances)
	coresB, _ := spc.Get(confB, spark.KnobInstances)
	// Not a hard guarantee, but the recommendations should stay in the same
	// neighborhood (the paper found 19/30 identical at minimum cores).
	if diff := coresA - coresB; diff > 8 || diff < -8 {
		t.Logf("note: OtterTune moved executors %v -> %v across weights", coresA, coresB)
	}
}
