package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/calib"
	"repro/internal/runlog"
	"repro/internal/telemetry"
	"repro/internal/watch"
)

// TestPhaseBreakdownRecorded checks the span pipeline end to end at the
// service seam: one /optimize call yields a run record whose phase_breakdown
// was computed from this request's span subtree — non-empty, covering the
// solve phases, and summing to no more than the recorded wall time.
func TestPhaseBreakdownRecorded(t *testing.T) {
	svc, wl := buildTelemetryService(t)
	reg, err := runlog.Open(filepath.Join(t.TempDir(), "runs.jsonl"), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	svc.Runs = reg

	resp, err := svc.Optimize(OptimizeRequest{Workload: wl, Weights: []float64{0.5, 0.5}, Probes: 12})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := reg.Get(resp.RunRecord)
	if !ok {
		t.Fatalf("run record %q not found", resp.RunRecord)
	}
	if len(rec.PhaseBreakdown) == 0 {
		t.Fatal("phase_breakdown missing from run record")
	}
	if _, ok := rec.PhaseBreakdown["service"]; !ok {
		t.Fatalf("phase_breakdown lacks the service phase: %v", rec.PhaseBreakdown)
	}
	if _, ok := rec.PhaseBreakdown["pf"]; !ok {
		t.Fatalf("phase_breakdown lacks the pf phase: %v", rec.PhaseBreakdown)
	}
	sum := 0.0
	for ph, sec := range rec.PhaseBreakdown {
		if sec < 0 {
			t.Fatalf("negative self time for %s: %v", ph, sec)
		}
		sum += sec
	}
	// Self times over the request's subtree sum to the root span's duration,
	// which is strictly inside the recorded wall time (allow scheduling slop).
	if sum > rec.SolveSec*1.05 {
		t.Fatalf("phase self times sum %.4fs > solve_sec %.4fs", sum, rec.SolveSec)
	}
	if sum <= 0 {
		t.Fatal("phase self times sum to zero")
	}

	// The per-phase histogram family saw the same phases.
	snap := svc.Telemetry.Metrics.Snapshot()
	h := snap.Histograms[telemetry.Labeled(telemetry.MetricPhaseSeconds, "phase", "pf")]
	if h.Count == 0 {
		t.Fatal("udao_phase_seconds{phase=\"pf\"} has no observations")
	}

	// A second request against the cached optimizer still gets its own
	// subtree (run IDs repeat; span IDs do not).
	resp2, err := svc.Optimize(OptimizeRequest{Workload: wl, Weights: []float64{0.9, 0.1}, Probes: 12})
	if err != nil {
		t.Fatal(err)
	}
	rec2, ok := reg.Get(resp2.RunRecord)
	if !ok {
		t.Fatalf("second run record %q not found", resp2.RunRecord)
	}
	if len(rec2.PhaseBreakdown) == 0 {
		t.Fatal("second request has no phase_breakdown")
	}
	if rec2.PhaseBreakdown["service"] >= rec.PhaseBreakdown["service"]+rec.SolveSec {
		t.Fatalf("second request's breakdown absorbed the first: %v vs %v", rec2.PhaseBreakdown, rec.PhaseBreakdown)
	}
}

// TestAlertsEndToEnd drives an injected SLO breach through the watchdog and
// reads the alert back over GET /alerts, with liveness in /healthz and the
// alert-log gate in /readyz.
func TestAlertsEndToEnd(t *testing.T) {
	svc, wl := buildTelemetryService(t)
	dir := t.TempDir()
	alertPath := filepath.Join(dir, "alerts.jsonl")
	wd, err := watch.New(watch.Config{
		Telemetry: svc.Telemetry,
		AlertPath: alertPath,
		Flight: watch.FlightConfig{
			Dir:           filepath.Join(dir, "flight"),
			CPUProfileDur: 10 * time.Millisecond,
			MinInterval:   time.Nanosecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()
	svc.Watch = wd

	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// No alerts yet: empty list, healthy gates.
	var alertsOut struct {
		Alerts []watch.Alert `json:"alerts"`
	}
	getJSON(t, ts.URL+"/alerts", http.StatusOK, &alertsOut)
	if len(alertsOut.Alerts) != 0 {
		t.Fatalf("unexpected alerts: %+v", alertsOut.Alerts)
	}

	// Inject an SLO burn: a solve that breaches an absurdly tight SLO.
	svc.SLO = time.Nanosecond
	wd.EvalOnce() // baseline snapshot
	body, _ := json.Marshal(OptimizeRequest{Workload: wl, Weights: []float64{0.5, 0.5}, Probes: 12})
	for i := 0; i < 4; i++ {
		resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("optimize status %d", resp.StatusCode)
		}
	}
	raised := wd.EvalOnce()
	if len(raised) == 0 {
		t.Fatal("no alert from injected SLO breach")
	}

	getJSON(t, ts.URL+"/alerts", http.StatusOK, &alertsOut)
	if len(alertsOut.Alerts) == 0 || alertsOut.Alerts[0].Rule != "slo_burn" {
		t.Fatalf("GET /alerts: %+v", alertsOut.Alerts)
	}
	if alertsOut.Alerts[0].Workload != wl {
		t.Fatalf("alert workload = %q, want %q", alertsOut.Alerts[0].Workload, wl)
	}

	// The alert is durable and the flight bundle is on disk.
	if st, err := os.Stat(alertPath); err != nil || st.Size() == 0 {
		t.Fatalf("alert log: %v %v", st, err)
	}
	bundle := alertsOut.Alerts[0].Bundle
	if bundle == "" {
		t.Fatal("alert has no flight bundle")
	}
	for _, name := range []string{"alert.json", "heap.pprof", "goroutine.pprof", "trace.jsonl"} {
		if _, err := os.Stat(filepath.Join(bundle, name)); err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
	}

	// /healthz surfaces watchdog liveness.
	var health struct {
		Status   string         `json:"status"`
		Watchdog map[string]any `json:"watchdog"`
	}
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	if health.Status != "ok" || health.Watchdog == nil {
		t.Fatalf("healthz: %+v", health)
	}
	if evals, _ := health.Watchdog["evals"].(float64); evals < 2 {
		t.Fatalf("healthz watchdog evals = %v", health.Watchdog["evals"])
	}

	// /readyz includes the alert-log gate.
	var ready struct {
		Status string            `json:"status"`
		Checks map[string]string `json:"checks"`
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK, &ready)
	if ready.Status != "ready" || ready.Checks["alertlog"] != "ok" {
		t.Fatalf("readyz: %+v", ready)
	}

	// Watchdog metrics flowed into the shared registry.
	snap := svc.Telemetry.Metrics.Snapshot()
	if snap.Counters[telemetry.MetricWatchAlerts] == 0 {
		t.Fatal("udao_watch_alerts_total = 0")
	}
	if snap.Counters[telemetry.Labeled(telemetry.MetricWatchAlerts, "rule", "slo_burn")] == 0 {
		t.Fatal("per-rule alert counter = 0")
	}
}

// TestSolveAndExpandRaiseNoAlert: a cold solve and an expand of its frontier
// between two watchdog sweeps are healthy traffic and raise no alert. A PF
// run poses each ε-constraint box once, so MOGD never sees a box twice here.
func TestSolveAndExpandRaiseNoAlert(t *testing.T) {
	svc, wl := buildTelemetryService(t)
	wd, err := watch.New(watch.Config{Telemetry: svc.Telemetry})
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()
	svc.Watch = wd

	wd.EvalOnce() // baseline
	for _, step := range []struct {
		probes int
		served string
	}{{30, "solve"}, {60, "expand"}} {
		resp, err := svc.Optimize(OptimizeRequest{Workload: wl, Weights: []float64{0.5, 0.5}, Probes: step.probes})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Served != step.served {
			t.Fatalf("%d probes: served %q, want %q", step.probes, resp.Served, step.served)
		}
	}
	if raised := wd.EvalOnce(); len(raised) != 0 {
		t.Fatalf("healthy solve and expand raised %+v", raised)
	}
}

// TestObserveLoopTripsDriftAlert closes the observe loop over HTTP: outcomes
// fed back over /observe at 2.5x their predictions must end, after one
// watchdog sweep, in a calib_drift alert with a flight-recorder bundle.
func TestObserveLoopTripsDriftAlert(t *testing.T) {
	dir := t.TempDir()
	svc, wl, led := buildCalibService(t, dir, calib.Options{})
	wd, err := watch.New(watch.Config{
		Telemetry: svc.Telemetry,
		Runs:      svc.Runs,
		Calib:     led,
		AlertPath: filepath.Join(dir, "alerts.jsonl"),
		Flight:    watch.FlightConfig{Dir: filepath.Join(dir, "flight")},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()
	svc.Watch = wd
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// Ten pairs clear calib_drift's minimum of 8; varied weights make
	// every request after the first a hit on the same frontier.
	for i := 0; i < 10; i++ {
		w := 0.05 + 0.09*float64(i)
		opt := postOptimize(t, ts.URL, OptimizeRequest{Workload: wl, Weights: []float64{w, 1 - w}, Probes: 8})
		actual := map[string]float64{}
		for k, v := range opt.Objectives {
			actual[k] = 2.5 * v
		}
		postObserve(t, ts.URL, ObserveRequest{Run: opt.RunRecord, Actual: actual}, http.StatusOK)
	}
	wd.EvalOnce()

	// The durable state the loop leaves behind: a ledger with matched pairs...
	if err := led.Sync(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "calib.jsonl")); err != nil || fi.Size() == 0 {
		t.Fatalf("calib.jsonl missing or empty: %v", err)
	}
	// ...and a calib_drift alert in alerts.jsonl. actual = 2.5x predicted
	// gives rel err 0.6 on every objective, far over the 0.35 ceiling.
	blob, err := os.ReadFile(filepath.Join(dir, "alerts.jsonl"))
	if err != nil {
		t.Fatalf("alerts.jsonl: %v", err)
	}
	var drift *watch.Alert
	sc := bufio.NewScanner(bytes.NewReader(blob))
	for sc.Scan() {
		var a watch.Alert
		if err := json.Unmarshal(sc.Bytes(), &a); err != nil {
			t.Fatalf("bad alert line %q: %v", sc.Text(), err)
		}
		if a.Rule == "calib_drift" && drift == nil {
			drift = &a
		}
	}
	if drift == nil {
		t.Fatalf("no calib_drift alert in alerts.jsonl:\n%s", blob)
	}
	if drift.Value < 0.5 || drift.Value > 0.7 {
		t.Fatalf("drift MAPE = %v, want ~0.6", drift.Value)
	}
	// The first raised alert captures a flight bundle identifying itself.
	if drift.Bundle == "" {
		t.Fatalf("calib_drift alert has no flight bundle: %+v", drift)
	}
	if _, err := os.Stat(filepath.Join(drift.Bundle, "alert.json")); err != nil {
		t.Fatalf("flight bundle %s incomplete: %v", drift.Bundle, err)
	}
}
