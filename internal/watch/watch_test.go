package watch

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/runlog"
	"repro/internal/telemetry"
)

// fakeClock is a manually advanced clock for deterministic sweeps.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time       { return c.t }
func (c *fakeClock) tick(d time.Duration) { c.t = c.t.Add(d) }
func newClock() *fakeClock                { return &fakeClock{t: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)} }

func newWatchdog(t *testing.T, cfg Config) *Watchdog {
	t.Helper()
	w, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(w.Stop)
	return w
}

func TestSLOBurnAlert(t *testing.T) {
	tel := telemetry.New()
	clock := newClock()
	dir := t.TempDir()
	w := newWatchdog(t, Config{
		Telemetry: tel,
		AlertPath: filepath.Join(dir, "alerts.jsonl"),
		Now:       clock.now,
	})

	breach := tel.Metrics.Counter(telemetry.Labeled(telemetry.MetricSolveSLOBreach, "workload", "q1"))
	okc := tel.Metrics.Counter(telemetry.Labeled(telemetry.MetricSolveSLOOk, "workload", "q1"))

	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("baseline sweep raised %v", got)
	}
	// Window: 5 breaches, 1 ok -> 83% burn.
	breach.Add(5)
	okc.Add(1)
	clock.tick(15 * time.Second)
	raised := w.EvalOnce()
	if len(raised) != 1 || raised[0].Rule != "slo_burn" {
		t.Fatalf("want one slo_burn alert, got %+v", raised)
	}
	if raised[0].Workload != "q1" || raised[0].Value < 0.8 {
		t.Fatalf("bad alert fields: %+v", raised[0])
	}
	// Same condition, no new data: edge-triggered, no repeat.
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("repeat sweep re-raised %v", got)
	}
	// Healthy window clears the latch; a later breach window fires again.
	okc.Add(10)
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("healthy window raised %v", got)
	}
	breach.Add(6)
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 1 {
		t.Fatalf("new breach window raised %v", got)
	}

	// Both alerts are durable in alerts.jsonl.
	var lines []Alert
	f, err := os.Open(filepath.Join(dir, "alerts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var a Alert
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("bad alert line: %v", err)
		}
		lines = append(lines, a)
	}
	if len(lines) != 2 || lines[0].ID != "alert-000001" || lines[1].ID != "alert-000002" {
		t.Fatalf("alert log: %+v", lines)
	}
	if got := w.Alerts(0); len(got) != 2 || got[0].ID != "alert-000002" {
		t.Fatalf("Alerts() newest-first: %+v", got)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("Err after healthy writes: %v", err)
	}
}

// TestPerWorkloadRulesReadQuotedNames: pipeline requests name their workload
// freely, and a name holding the label block's delimiters must still be
// judged, and reported, under its own name.
func TestPerWorkloadRulesReadQuotedNames(t *testing.T) {
	tel := telemetry.New()
	w := newWatchdog(t, Config{Telemetry: tel})
	names := []string{"q1", "pipe ok", "etl,ml", `a"b`, `c\d`}

	w.EvalOnce() // baseline
	for _, wl := range names {
		tel.Metrics.Counter(telemetry.Labeled(telemetry.MetricSolveSLOBreach, "workload", wl)).Add(5)
		tel.Metrics.Counter(telemetry.Labeled(telemetry.MetricSolveSLOOk, "workload", wl)).Add(1)
	}
	raised := map[string]bool{}
	for _, a := range w.EvalOnce() {
		raised[a.Rule+" "+a.Workload] = true
	}
	for _, wl := range names {
		if !raised["slo_burn "+wl] {
			t.Errorf("no slo_burn alert for workload %q; raised %v", wl, raised)
		}
	}
}

// TestSLOBurnReadsGoQuotedBlocks: the service formats its per-workload SLO
// series with %q, which writes a tab as \t where Labeled writes it as it
// is; slo_burn still judges, and names, such a workload.
func TestSLOBurnReadsGoQuotedBlocks(t *testing.T) {
	tel := telemetry.New()
	w := newWatchdog(t, Config{Telemetry: tel})
	const wl = "a\tb"

	w.EvalOnce() // baseline
	tel.Metrics.Counter(fmt.Sprintf("%s{workload=%q}", telemetry.MetricSolveSLOBreach, wl)).Add(5)
	tel.Metrics.Counter(fmt.Sprintf("%s{workload=%q}", telemetry.MetricSolveSLOOk, wl)).Add(1)
	raised := w.EvalOnce()
	if len(raised) != 1 || raised[0].Rule != "slo_burn" || raised[0].Workload != wl {
		t.Fatalf("want one slo_burn alert for %q, got %+v", wl, raised)
	}
}

// TestSubcacheCollapseAndLatencyAnomaly: a window in which MOGD's subproblem
// counters record no hits is healthy, since a PF run poses each box once and
// no rule judges those counters; the same window's latency spike is an
// anomaly.
func TestSubcacheCollapseAndLatencyAnomaly(t *testing.T) {
	tel := telemetry.New()
	clock := newClock()
	w := newWatchdog(t, Config{Telemetry: tel, Now: clock.now})

	miss := tel.Metrics.Counter(telemetry.MetricMOGDCacheMiss)
	lat := tel.Metrics.Histogram(telemetry.MetricSolveLatency, "", nil)

	w.EvalOnce() // baseline
	// Healthy windows establish the latency EWMA (~0.1s).
	for i := 0; i < 4; i++ {
		lat.Observe(0.1)
		clock.tick(15 * time.Second)
		if got := w.EvalOnce(); len(got) != 0 {
			t.Fatalf("healthy window %d raised %v", i, got)
		}
	}
	// No subproblem hits in 100 lookups, and a latency spike, in one window.
	miss.Add(100)
	lat.Observe(2.0)
	clock.tick(15 * time.Second)
	raised := w.EvalOnce()
	if len(raised) != 1 || raised[0].Rule != "latency_anomaly" {
		t.Fatalf("want only latency_anomaly, got %+v", raised)
	}
}

func TestEvalStallAlert(t *testing.T) {
	tel := telemetry.New()
	clock := newClock()
	w := newWatchdog(t, Config{Telemetry: tel, Now: clock.now})

	evals := tel.Metrics.Counter(telemetry.MetricModelEvals)
	solves := tel.Metrics.Counter(telemetry.MetricMOGDSolves)
	window := func(dEvals, dSolves uint64) []Alert {
		evals.Add(dEvals)
		solves.Add(dSolves)
		clock.tick(15 * time.Second)
		return w.EvalOnce()
	}

	w.EvalOnce() // baseline
	// Healthy windows establish the eval-rate EWMA (100/s).
	for i := 0; i < 4; i++ {
		if got := window(1500, 2); len(got) != 0 {
			t.Fatalf("healthy window %d raised %v", i, got)
		}
	}
	// Idle: no solves ran, so a zero eval rate is no stall.
	if got := window(0, 0); len(got) != 0 {
		t.Fatalf("idle window raised %v", got)
	}
	// Solves ran but the model-pass rate fell to 1/s.
	raised := window(15, 2)
	if len(raised) != 1 || raised[0].Rule != "eval_stall" || raised[0].Severity != "warning" {
		t.Fatalf("want one eval_stall warning, got %+v", raised)
	}
	if raised[0].Value != 1 || raised[0].Threshold != 100/ewmaDeviation {
		t.Fatalf("rate %v against threshold %v, want 1 against %v", raised[0].Value, raised[0].Threshold, 100/ewmaDeviation)
	}
	// No new solves: nothing to judge, no re-fire.
	if got := window(0, 0); len(got) != 0 {
		t.Fatalf("sweep without solves raised %v", got)
	}
}

func TestShedBurstAlert(t *testing.T) {
	tel := telemetry.New()
	clock := newClock()
	w := newWatchdog(t, Config{Telemetry: tel, Now: clock.now})

	reqs := tel.Metrics.Counter(telemetry.MetricServingRequests)
	shed := tel.Metrics.Counter(telemetry.MetricShed)

	w.EvalOnce() // baseline
	// Healthy window: lots of traffic, a lone shed under the 5% threshold.
	reqs.Add(100)
	shed.Add(1)
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("healthy window raised %v", got)
	}
	// Burst: 10 of 40 requests shed.
	reqs.Add(40)
	shed.Add(10)
	clock.tick(15 * time.Second)
	raised := w.EvalOnce()
	if len(raised) != 1 || raised[0].Rule != "shed_burst" || raised[0].Severity != "warning" {
		t.Fatalf("want one shed_burst warning, got %+v", raised)
	}
	if raised[0].Value < 0.24 || raised[0].Value > 0.26 {
		t.Fatalf("shed fraction %v, want 0.25", raised[0].Value)
	}
	// Quiet window below shedBurstMin: no judgement, no re-fire.
	reqs.Add(3)
	shed.Add(3)
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("low-traffic window raised %v", got)
	}
	// Majority shed goes critical; new sheds are new evidence.
	reqs.Add(30)
	shed.Add(20)
	clock.tick(15 * time.Second)
	raised = w.EvalOnce()
	if len(raised) != 1 || raised[0].Severity != "critical" {
		t.Fatalf("want a critical shed_burst, got %+v", raised)
	}
	// Same cumulative sheds, more requests: healthy again, latch clears.
	reqs.Add(100)
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("recovered window raised %v", got)
	}
}

func TestCacheThrashAlert(t *testing.T) {
	tel := telemetry.New()
	clock := newClock()
	w := newWatchdog(t, Config{Telemetry: tel, Now: clock.now})

	evictLRU := tel.Metrics.Counter(telemetry.Labeled(telemetry.MetricServingEvictions, "reason", "lru"))
	evictTTL := tel.Metrics.Counter(telemetry.Labeled(telemetry.MetricServingEvictions, "reason", "ttl"))
	hits := tel.Metrics.Counter(telemetry.MetricServingHits)

	w.EvalOnce() // baseline
	// Healthy churn: a few evictions amid plenty of hits.
	evictLRU.Add(10)
	hits.Add(90)
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("healthy window raised %v", got)
	}
	// TTL evictions are routine aging, not thrash — they must not count.
	evictTTL.Add(50)
	hits.Add(10)
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("TTL-expiry window raised %v", got)
	}
	// Thrash: the window's LRU evictions match its hits.
	evictLRU.Add(12)
	hits.Add(12)
	clock.tick(15 * time.Second)
	raised := w.EvalOnce()
	if len(raised) != 1 || raised[0].Rule != "cache_thrash" {
		t.Fatalf("want one cache_thrash alert, got %+v", raised)
	}
	if raised[0].Value != 12 {
		t.Fatalf("evictions in alert = %v, want 12", raised[0].Value)
	}
	// Same condition, no new evictions: edge-triggered.
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("repeat sweep re-raised %v", got)
	}
	// Hits recover: latch clears, a later thrash window fires again.
	hits.Add(200)
	evictLRU.Add(8)
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("recovered window raised %v", got)
	}
	evictLRU.Add(20)
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 1 {
		t.Fatalf("new thrash window raised %v", got)
	}
}

func TestHVDropStreakTriggersFlightBundle(t *testing.T) {
	tel := telemetry.New()
	tel.Trace.SetLevel(telemetry.LevelRun)
	clock := newClock()
	dir := t.TempDir()

	reg, err := runlog.Open(filepath.Join(dir, "runs.jsonl"), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	w := newWatchdog(t, Config{
		Telemetry: tel,
		Runs:      reg,
		AlertPath: filepath.Join(dir, "alerts.jsonl"),
		Now:       clock.now,
		Flight: FlightConfig{
			Dir:           filepath.Join(dir, "flight"),
			CPUProfileDur: 20 * time.Millisecond,
			MinInterval:   time.Nanosecond,
		},
	})

	// Trace events for the offending run, so the bundle has a snapshot.
	sp := tel.Trace.StartSpan(telemetry.LevelRun, "opt-7", 0, "service", "optimize")
	sp.End("", nil)

	// Three recorded runs with worsening frontiers. The registry computes
	// deltas itself from the frontier points: shrink the frontier each run.
	fronts := [][]runlog.FrontierPoint{
		{{F: []float64{1, 10}}, {F: []float64{10, 1}}, {F: []float64{4, 4}}},
		{{F: []float64{2, 10}}, {F: []float64{10, 2}}, {F: []float64{5, 5}}},
		{{F: []float64{3, 10}}, {F: []float64{10, 3}}, {F: []float64{6, 6}}},
		{{F: []float64{4, 10}}, {F: []float64{10, 4}}, {F: []float64{7, 7}}},
	}
	for _, fr := range fronts {
		if _, err := reg.Append(runlog.Record{
			Workload: "q9", Objectives: []string{"latency", "cores"},
			Frontier: fr, TraceRunID: "opt-7",
		}); err != nil {
			t.Fatal(err)
		}
	}

	raised := w.EvalOnce()
	if len(raised) != 1 || raised[0].Rule != "hv_drop_streak" {
		t.Fatalf("want hv_drop_streak, got %+v", raised)
	}
	a := raised[0]
	if a.Workload != "q9" || a.TraceRun != "opt-7" || a.Severity != "critical" {
		t.Fatalf("alert fields: %+v", a)
	}
	if a.Bundle == "" {
		t.Fatalf("no flight bundle captured: %+v", a)
	}
	for _, name := range []string{"alert.json", "heap.pprof", "goroutine.pprof", "trace.jsonl", "cpu.pprof"} {
		st, err := os.Stat(filepath.Join(a.Bundle, name))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
		if name != "cpu.pprof" && st.Size() == 0 {
			t.Fatalf("bundle %s is empty", name)
		}
	}
	// trace.jsonl holds the offending run's span event.
	b, err := os.ReadFile(filepath.Join(a.Bundle, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var ev telemetry.Event
	if err := json.Unmarshal(b[:len(b)-1], &ev); err != nil || ev.Run != "opt-7" || ev.Span == 0 {
		t.Fatalf("trace snapshot: %q err=%v", b, err)
	}

	// No repeat while no new run arrives.
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("repeat sweep re-raised %v", got)
	}
	// A fourth worsening run is new evidence: it fires again.
	if _, err := reg.Append(runlog.Record{
		Workload: "q9", Objectives: []string{"latency", "cores"},
		Frontier: []runlog.FrontierPoint{{F: []float64{5, 10}}, {F: []float64{10, 5}}, {F: []float64{8, 8}}},
	}); err != nil {
		t.Fatal(err)
	}
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 1 {
		t.Fatalf("new worsening run raised %v", got)
	}
}

func TestWatchMetricsAndLiveness(t *testing.T) {
	tel := telemetry.New()
	clock := newClock()
	w := newWatchdog(t, Config{Telemetry: tel, Now: clock.now})
	w.EvalOnce()
	clock.tick(15 * time.Second)
	w.EvalOnce()
	if w.Evals() != 2 {
		t.Fatalf("Evals = %d", w.Evals())
	}
	if got := w.LastEval(); !got.Equal(clock.t) {
		t.Fatalf("LastEval = %v want %v", got, clock.t)
	}
	snap := tel.Metrics.Snapshot()
	if snap.Counters[telemetry.MetricWatchEvals] != 2 {
		t.Fatalf("watch evals counter = %d", snap.Counters[telemetry.MetricWatchEvals])
	}
	if snap.Gauges[telemetry.MetricWatchLastEval] != float64(clock.t.Unix()) {
		t.Fatalf("last-eval gauge = %v", snap.Gauges[telemetry.MetricWatchLastEval])
	}
}

func TestStartStop(t *testing.T) {
	tel := telemetry.New()
	w, err := New(Config{Telemetry: tel, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	w.Start()
	deadline := time.Now().Add(5 * time.Second)
	for w.Evals() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	w.Stop()
	w.Stop() // idempotent
	if w.Evals() == 0 {
		t.Fatal("loop never swept")
	}
}

func TestBundlePruning(t *testing.T) {
	tel := telemetry.New()
	clock := newClock()
	dir := t.TempDir()
	f := newFlightRecorder(FlightConfig{
		Dir: dir, CPUProfileDur: time.Millisecond,
		MinInterval: time.Nanosecond, MaxBundles: 2,
	}, tel, clock.now)
	for i := 1; i <= 4; i++ {
		clock.tick(time.Second)
		if _, err := f.capture(Alert{ID: fmt.Sprintf("alert-%06d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || names[0] != "alert-000003" || names[1] != "alert-000004" {
		t.Fatalf("pruning kept %v", names)
	}
}

// TestRunlessBundleGroupsRuns: a bundle for an alert that names no run
// holds every buffered run, grouped by run in order of first appearance and
// each in emission order, and no event that belongs to no run.
func TestRunlessBundleGroupsRuns(t *testing.T) {
	tel := telemetry.New()
	for _, e := range []struct{ run, name string }{
		{"opt-1", "a1"}, {"", "x1"}, {"req-1", "r1"}, {"opt-1", "a2"}, {"opt-2", "b1"},
		{"", "x2"}, {"req-1", "r2"}, {"opt-2", "b2"}, {"opt-1", "a3"},
	} {
		tel.Trace.Emit(telemetry.LevelRun, telemetry.Event{Run: e.run, Scope: "test", Name: e.name})
	}
	f := newFlightRecorder(FlightConfig{Dir: t.TempDir(), MinInterval: -1}, tel, newClock().now)
	dir, err := f.capture(Alert{ID: "alert-000001", Rule: "slo_burn"})
	if err != nil || dir == "" {
		t.Fatalf("capture: dir %q err %v", dir, err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		var e telemetry.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		got = append(got, e.Run+"/"+e.Name)
	}
	want := []string{"opt-1/a1", "opt-1/a2", "opt-1/a3", "req-1/r1", "req-1/r2", "opt-2/b1", "opt-2/b2"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("trace.jsonl = %v, want %v", got, want)
	}
}
