package modelserver

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/model/dnn"
	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/telemetry"
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

// TestFailedTrainingEndsSpan traces two trainings that fail, one on a
// missing objective and one whose kernel matrix cannot be factored (a NaN
// trace input): each must close its model/train span with detail "error",
// so /debug/trace shows it and its time is not charged to the parent span.
func TestFailedTrainingEndsSpan(t *testing.T) {
	spc, st := buildStore(t, 10)
	bad := st.ForWorkload("w0")[0]
	bad.Workload, bad.X = "w-nan", append([]float64(nil), bad.X...)
	bad.X[0] = math.NaN()
	st.Add(bad)
	tel := telemetry.New()
	srv := New(spc, st, Config{Kind: GP, Telemetry: tel})
	for _, c := range []struct{ run, workload, objective string }{
		{"missing-objective", "w0", "nope"},
		{"unfactorable", "w-nan", "latency"},
	} {
		srv.SetTraceContext(c.run, 7)
		if _, err := srv.Model(c.workload, c.objective); err == nil {
			t.Fatalf("%s: Model(%q, %q) succeeded; want an error", c.run, c.workload, c.objective)
		}
		var ended bool
		for _, e := range tel.Trace.Events(c.run) {
			if e.Scope == "model" && e.Name == "train" && e.Detail == "error" && e.Span != 0 && e.Parent == 7 {
				ended = true
			}
		}
		if !ended {
			t.Fatalf("%s: no model/train span ended with detail \"error\" under parent 7 in %+v", c.run, tel.Trace.Events(c.run))
		}
	}
}

// trainings reads the server's training counter.
func trainings(tel *telemetry.Telemetry) uint64 {
	return tel.Metrics.Counter(telemetry.MetricModelTrainings).Value()
}

func TestChangedTraceCountRetrains(t *testing.T) {
	spc, st := buildStore(t, 40)
	tel := telemetry.New()
	srv := New(spc, st, Config{Kind: DNN, DNNCfg: dnn.Config{Hidden: []int{32}, Epochs: 60}, Telemetry: tel})
	m1, err := srv.Model("w0", "latency")
	if err != nil {
		t.Fatal(err)
	}
	if m, err := srv.Model("w0", "latency"); err != nil || m != m1 || trainings(tel) != 1 {
		t.Fatalf("unchanged trace count: model %p (first %p), %v, trainings %d; want the cached model and 1 training", m, m1, err, trainings(tel))
	}
	// Five more traces: the network is trained again from scratch, and the
	// model handed out before stays as it was.
	for _, e := range st.ForWorkload("w0")[:5] {
		st.Add(e)
	}
	m2, err := srv.Model("w0", "latency")
	if err != nil {
		t.Fatal(err)
	}
	if m2 == m1 || trainings(tel) != 2 {
		t.Fatalf("changed trace count: same model %v, trainings %d; want a new model and 2 trainings", m2 == m1, trainings(tel))
	}
	if m, err := srv.Model("w0", "latency"); err != nil || m != m2 || trainings(tel) != 2 {
		t.Fatalf("after the retrain: model %p (retrained %p), %v, trainings %d", m, m2, err, trainings(tel))
	}
}

// TestConcurrentModel asks for two keys from eight goroutines at once: each
// key is trained once and all its callers share that model.
func TestConcurrentModel(t *testing.T) {
	spc, st := buildStore(t, 30)
	tel := telemetry.New()
	srv := New(spc, st, Config{Kind: GP, Telemetry: tel})
	objectives := []string{"latency", "cores"}
	got := make([]model.Model, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := srv.Model("w0", objectives[i%2])
			if err != nil {
				t.Error(err)
			}
			got[i] = m
		}()
	}
	wg.Wait()
	if n := trainings(tel); n != 2 {
		t.Fatalf("trainings = %d, want 2", n)
	}
	for i := 2; i < len(got); i++ {
		if got[i] == nil || got[i] != got[i%2] {
			t.Fatalf("caller %d of %s got %p, caller %d got %p", i, objectives[i%2], got[i], i%2, got[i%2])
		}
	}
	if got[0] == got[1] {
		t.Fatal("latency and cores share one model")
	}
}

// postPredict POSTs a latency /predict request to the server at url.
func postPredict(t *testing.T, url, workload string, x []float64) (int, predictResponse) {
	t.Helper()
	blob, err := json.Marshal(predictRequest{Workload: workload, Objective: "latency", X: x})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(blob))
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
	code, pr := postPredict(t, ts.URL, "w0", x)
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
	if code, _ := postPredict(t, ts.URL, "nope", x); code != http.StatusNotFound {
		t.Fatalf("unknown workload: status %d, want 404", code)
	}
	if code, _ := postPredict(t, ts.URL, "w0", []float64{0.1, 0.2}); code != http.StatusBadRequest {
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

// TestDNNPredictRepeats: a DNN server answers two /predict calls at one x
// with the same variance bits.
func TestDNNPredictRepeats(t *testing.T) {
	spc, st := buildStore(t, 40)
	ts := httptest.NewServer(New(spc, st, Config{Kind: DNN}).Handler())
	defer ts.Close()
	x := make([]float64, spc.Dim())
	for i := range x {
		x[i] = 0.4
	}
	var got [2]predictResponse
	for i := range got {
		code, pr := postPredict(t, ts.URL, "w0", x)
		if code != http.StatusOK {
			t.Fatalf("POST /predict %d = %d", i, code)
		}
		got[i] = pr
	}
	if !(got[0].Variance > 0) || math.Float64bits(got[0].Variance) != math.Float64bits(got[1].Variance) {
		t.Fatalf("variances %v and %v, want one positive value", got[0].Variance, got[1].Variance)
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
	// A log-target DNN wraps its network the same way.
	srvD := New(spc, st, Config{Kind: DNN, DNNCfg: dnn.Config{Hidden: []int{24}, Epochs: 40}, LogTargets: true})
	mD, err := srvD.Model("w0", "latency")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mD.(model.Exp).M.(*dnn.Net); !ok {
		t.Fatalf("log-target DNN model is %T, want model.Exp over *dnn.Net", mD)
	}
}
