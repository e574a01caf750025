package modelserver

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/model"
	"repro/internal/model/dnn"
	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/trace"
)

// buildStore collects n traces of a small batch job.
func buildStore(t *testing.T, n int) (*space.Space, *trace.Store) {
	t.Helper()
	spc := spark.BatchSpace()
	df := spark.Chain("ms-test", 3e6, 100,
		spark.Operator{Kind: spark.OpScan, Selectivity: 1, CostPerRow: 1},
		spark.Operator{Kind: spark.OpExchange, Selectivity: 1, CostPerRow: 0.1},
		spark.Operator{Kind: spark.OpAggregate, Selectivity: 0.01, CostPerRow: 0.5, MemPerRow: 64},
	)
	cl := spark.DefaultCluster()
	run := func(conf space.Values, seed int64) (map[string]float64, []float64, error) {
		m, err := spark.Run(df, spc, conf, cl, seed)
		if err != nil {
			return nil, nil, err
		}
		return map[string]float64{"latency": m.LatencySec, "cores": m.Cores}, m.TraceVector(), nil
	}
	st := trace.NewStore()
	rng := rand.New(rand.NewSource(1))
	confs, err := trace.HeuristicSample(spc, spark.DefaultBatchConf(spc), n, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Collect(st, spc, "w0", confs, run, 1); err != nil {
		t.Fatal(err)
	}
	return spc, st
}

func TestGPModelAccuracy(t *testing.T) {
	spc, st := buildStore(t, 60)
	srv := New(spc, st, Config{Kind: GP})
	m, err := srv.Model("w0", "latency")
	if err != nil {
		t.Fatal(err)
	}
	if w := WMAPE(m, st.ForWorkload("w0"), "latency"); w > 0.2 {
		t.Fatalf("GP training WMAPE = %v, want < 0.2", w)
	}
	// Cached model returned for unchanged traces.
	m2, err := srv.Model("w0", "latency")
	if err != nil {
		t.Fatal(err)
	}
	if m != m2 {
		t.Fatal("model not cached")
	}
}

func TestDNNModelAccuracy(t *testing.T) {
	spc, st := buildStore(t, 80)
	srv := New(spc, st, Config{Kind: DNN, DNNCfg: dnn.Config{Hidden: []int{48, 48}, Epochs: 150}})
	m, err := srv.Model("w0", "latency")
	if err != nil {
		t.Fatal(err)
	}
	if w := WMAPE(m, st.ForWorkload("w0"), "latency"); w > 0.25 {
		t.Fatalf("DNN training WMAPE = %v, want < 0.25", w)
	}
}

func TestMissingWorkloadAndObjective(t *testing.T) {
	spc, st := buildStore(t, 10)
	srv := New(spc, st, Config{Kind: GP})
	if _, err := srv.Model("nope", "latency"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
	if _, err := srv.Model("w0", "nope"); err == nil {
		t.Fatal("expected error for unknown objective")
	}
}

func TestIncrementalFineTune(t *testing.T) {
	spc, st := buildStore(t, 40)
	srv := New(spc, st, Config{Kind: DNN, DNNCfg: dnn.Config{Hidden: []int{32}, Epochs: 60}, RetrainThreshold: 50})
	m1, err := srv.Model("w0", "latency")
	if err != nil {
		t.Fatal(err)
	}
	// Small update: 5 new traces → fine-tune the same network in place.
	for _, e := range st.ForWorkload("w0")[:5] {
		e2 := e
		e2.Objectives = map[string]float64{"latency": e.Objectives["latency"], "cores": e.Objectives["cores"]}
		st.Add(e2)
	}
	m2, err := srv.Model("w0", "latency")
	if err != nil {
		t.Fatal(err)
	}
	if m1.(*dnn.Net) != m2.(*dnn.Net) {
		t.Fatal("small update should fine-tune the existing network")
	}
}

func TestModels(t *testing.T) {
	spc, st := buildStore(t, 30)
	srv := New(spc, st, Config{Kind: GP})
	ms, err := srv.Models("w0", []string{"latency", "cores"})
	if err != nil || len(ms) != 2 {
		t.Fatalf("Models = %v, %v", ms, err)
	}
}

func TestHTTPInterface(t *testing.T) {
	spc, st := buildStore(t, 40)
	srv := New(spc, st, Config{Kind: GP})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	local, err := srv.Model("w0", "latency")
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, spc.Dim())
	for i := range x {
		x[i] = 0.4
	}
	predict := func(workload string, x []float64) (int, predictResponse) {
		t.Helper()
		blob, err := json.Marshal(predictRequest{Workload: workload, Objective: "latency", X: x})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/predict", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr predictResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, pr
	}
	code, pr := predict("w0", x)
	if code != http.StatusOK {
		t.Fatalf("POST /predict = %d", code)
	}
	mu, v := local.(model.Uncertain).PredictVar(x)
	if pr.Mean != mu || pr.Variance != v {
		t.Fatalf("served (%v, %v), local (%v, %v)", pr.Mean, pr.Variance, mu, v)
	}
	if v < 0 {
		t.Fatalf("variance %v < 0", v)
	}

	// Error paths map to HTTP statuses.
	if code, _ := predict("nope", x); code != http.StatusNotFound {
		t.Fatalf("unknown workload: status %d, want 404", code)
	}
	if code, _ := predict("w0", []float64{0.1, 0.2}); code != http.StatusBadRequest {
		t.Fatalf("dim mismatch: status %d, want 400", code)
	}
	resp, err := http.Get(ts.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: status %d, want 405", resp.StatusCode)
	}
}

func TestWMAPEEmpty(t *testing.T) {
	if w := WMAPE(model.Func{D: 1, F: func(x []float64) float64 { return 1 }}, nil, "latency"); w != 0 {
		t.Fatalf("empty WMAPE = %v", w)
	}
}

func TestLogTargets(t *testing.T) {
	spc, st := buildStore(t, 60)
	srv := New(spc, st, Config{Kind: GP, LogTargets: true})
	m, err := srv.Model("w0", "latency")
	if err != nil {
		t.Fatal(err)
	}
	if w := WMAPE(m, st.ForWorkload("w0"), "latency"); w > 0.25 {
		t.Fatalf("log-target GP WMAPE = %v", w)
	}
	// Extrapolations stay positive everywhere, including box corners.
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, spc.Dim())
	for trial := 0; trial < 200; trial++ {
		for d := range x {
			x[d] = rng.Float64()
		}
		if v := m.Predict(x); v <= 0 {
			t.Fatalf("log-target model predicted %v <= 0", v)
		}
	}
	// Uncertainty passthrough stays positive too.
	u, ok := m.(model.Uncertain)
	if !ok {
		t.Fatal("log-target GP should remain Uncertain")
	}
	if mean, v := u.PredictVar(x); mean <= 0 || v < 0 {
		t.Fatalf("PredictVar = %v, %v", mean, v)
	}
	// DNN fine-tune path still works under LogTargets.
	srvD := New(spc, st, Config{Kind: DNN, DNNCfg: dnn.Config{Hidden: []int{24}, Epochs: 40}, LogTargets: true, RetrainThreshold: 50})
	m1, err := srvD.Model("w0", "latency")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range st.ForWorkload("w0")[:3] {
		st.Add(e)
	}
	m2, err := srvD.Model("w0", "latency")
	if err != nil {
		t.Fatal(err)
	}
	n1 := m1.(model.Exp).M.(*dnn.Net)
	n2 := m2.(model.Exp).M.(*dnn.Net)
	if n1 != n2 {
		t.Fatal("log-target DNN small update should fine-tune in place")
	}
}
