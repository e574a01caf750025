package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Fatal("get-or-create returned a different counter")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	// nil instruments are safe no-ops (disabled telemetry).
	var nc *Counter
	nc.Add(1)
	var ng *Gauge
	ng.Set(1)
	var nh *Histogram
	nh.Observe(1)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 {
		t.Fatal("nil instruments should read zero")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "a histogram", []float64{1, 2, 4, 8})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	// 100 observations uniformly in (0, 8): quantiles should land in the
	// right buckets.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.08)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d", got)
	}
	if p50 := h.Quantile(0.50); p50 < 2 || p50 > 8 {
		t.Fatalf("p50 = %v, want within (2, 8]", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 4 || p99 > 8 {
		t.Fatalf("p99 = %v, want within (4, 8]", p99)
	}
	// Overflow values report the largest finite bound.
	h2 := r.Histogram("h2_seconds", "", []float64{1})
	h2.Observe(100)
	if got := h2.Quantile(0.5); got != 1 {
		t.Fatalf("overflow quantile = %v, want 1", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	tel := New()
	tel.Metrics.Counter(MetricModelEvals).Add(7)
	tel.Metrics.Counter(MetricHTTPRequests + `{route="/optimize",code="200"}`).Inc()
	tel.Metrics.Histogram(MetricHTTPLatency, "", nil).Observe(0.003)
	tel.Metrics.Histogram(Labeled(MetricPhaseSeconds, "phase", "pf"), "", nil).Observe(0.02)
	tel.Metrics.Gauge(MetricPFUncertain).Set(0.25)

	var b strings.Builder
	tel.Metrics.WriteProm(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE udao_http_requests_total counter",
		"udao_model_evals_total 7",
		`udao_http_requests_total{route="/optimize",code="200"} 1`,
		"udao_http_requests_total 0", // pre-registered aggregate series
		"udao_memo_hits_total 0",     // pre-registered, untouched
		"udao_mogd_iterations_total 0",
		"# TYPE udao_http_latency_seconds histogram",
		`udao_http_latency_seconds_bucket{le="0.005"} 1`,
		"udao_http_latency_seconds_count 1",
		// A labeled histogram keeps one label block, with le added to it.
		`udao_phase_seconds_bucket{phase="pf",le="0.01"} 0`,
		`udao_phase_seconds_bucket{phase="pf",le="0.025"} 1`,
		`udao_phase_seconds_bucket{phase="pf",le="+Inf"} 1`,
		`udao_phase_seconds_sum{phase="pf"} 0.02`,
		`udao_phase_seconds_count{phase="pf"} 1`,
		"udao_pf_uncertain_frac 0.25",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// HELP/TYPE must be emitted once per family, not per labeled series.
	if n := strings.Count(out, "# TYPE udao_http_requests_total counter"); n != 1 {
		t.Fatalf("TYPE emitted %d times for one family", n)
	}
	if n := strings.Count(out, "# TYPE udao_phase_seconds histogram"); n != 1 {
		t.Fatalf("TYPE emitted %d times for one histogram family", n)
	}
	if strings.Contains(out, "}_") {
		t.Fatalf("a suffix follows a label block:\n%s", out)
	}
}

// TestRegistryConcurrent exercises concurrent get-or-create, writes and
// snapshots; run under -race it proves the registry's synchronization.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("shared_total").Inc()
				r.Gauge("shared_gauge").Add(1)
				r.Histogram("shared_seconds", "", nil).Observe(float64(i) * 1e-4)
				if i%500 == 0 {
					_ = r.Snapshot()
					var b strings.Builder
					r.WriteProm(&b)
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != workers*iters {
		t.Fatalf("counter = %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("shared_gauge").Value(); got != workers*iters {
		t.Fatalf("gauge = %v, want %d", got, workers*iters)
	}
	if got := r.Histogram("shared_seconds", "", nil).Count(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}

func TestSnapshotAndExpvar(t *testing.T) {
	tel := New()
	tel.Metrics.Counter(MetricMemoHits).Add(3)
	tel.Metrics.Histogram(MetricEvalBatchTime, "", nil).Observe(0.01)
	s := tel.Metrics.Snapshot()
	if s.Counters[MetricMemoHits] != 3 {
		t.Fatalf("snapshot counter = %d", s.Counters[MetricMemoHits])
	}
	if hs := s.Histograms[MetricEvalBatchTime]; hs.Count != 1 || hs.Sum != 0.01 {
		t.Fatalf("snapshot histogram = %+v", hs)
	}
	// Publishing twice (same name) must not panic.
	tel.Metrics.PublishExpvar("udao_test_metrics")
	tel.Metrics.PublishExpvar("udao_test_metrics")
}

func TestRunIDs(t *testing.T) {
	tel := New()
	a, b := tel.NextRunID("opt"), tel.NextRunID("opt")
	if a == b || a != "opt-1" || b != "opt-2" {
		t.Fatalf("run ids = %q, %q", a, b)
	}
}
