package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/modelserver"
	"repro/internal/runlog"
	"repro/internal/spark"
	"repro/internal/telemetry"
)

// buildObservableService is buildService with telemetry and a run registry.
func buildObservableService(t *testing.T) (*Service, string, *runlog.Registry) {
	t.Helper()
	svc, wl := buildService(t, modelserver.GP)
	svc.Telemetry = telemetry.New()
	reg, err := runlog.Open(filepath.Join(t.TempDir(), "runs.jsonl"), runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	svc.Runs = reg
	return svc, wl, reg
}

func postOptimize(t *testing.T, url string, req OptimizeRequest) OptimizeResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(resp.Body)
		t.Fatalf("optimize status %d: %s", resp.StatusCode, blob)
	}
	var out OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getJSON(t *testing.T, url string, wantStatus int, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		blob, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s status = %d, want %d: %s", url, resp.StatusCode, wantStatus, blob)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOptimizeRecordsRun(t *testing.T) {
	svc, wl, _ := buildObservableService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	out := postOptimize(t, ts.URL, OptimizeRequest{Workload: wl, Weights: []float64{0.5, 0.5}, Probes: 12})
	if out.RunRecord == "" {
		t.Fatal("response missing run_record")
	}

	// The record is retrievable via GET /runs/{id} with frontier, quality,
	// counters and the trace run ID (the acceptance criterion).
	var rec runlog.Record
	getJSON(t, ts.URL+"/runs/"+out.RunRecord, http.StatusOK, &rec)
	if rec.Workload != wl {
		t.Fatalf("record workload = %q", rec.Workload)
	}
	if len(rec.Frontier) != out.FrontierPoints {
		t.Fatalf("record frontier = %d points, response says %d", len(rec.Frontier), out.FrontierPoints)
	}
	if rec.Quality.Hypervolume < 0 || rec.Quality.Hypervolume > 1 {
		t.Fatalf("record hypervolume = %v", rec.Quality.Hypervolume)
	}
	if rec.Quality.Coverage <= 0 {
		t.Fatalf("record coverage = %d", rec.Quality.Coverage)
	}
	if rec.Evals == 0 || rec.Evals != out.ModelEvals {
		t.Fatalf("record evals = %d, response %d", rec.Evals, out.ModelEvals)
	}
	if rec.TraceRunID == "" || rec.TraceRunID != out.Telemetry.RunID {
		t.Fatalf("record trace run = %q, response %q", rec.TraceRunID, out.Telemetry.RunID)
	}
	if rec.SolveSec <= 0 {
		t.Fatalf("record solve_sec = %v", rec.SolveSec)
	}
	if len(rec.Expands) == 0 || rec.Expands[0].Frontier == 0 {
		t.Fatalf("record expands = %+v", rec.Expands)
	}
	if rec.Quality.UncertainFrac < 0 || rec.Quality.UncertainFrac > 1 {
		t.Fatalf("record uncertain_frac = %v", rec.Quality.UncertainFrac)
	}

	// A second call of the same workload chains quality to the first.
	out2 := postOptimize(t, ts.URL, OptimizeRequest{Workload: wl, Weights: []float64{0.9, 0.1}, Probes: 12})
	var rec2 runlog.Record
	getJSON(t, ts.URL+"/runs/"+out2.RunRecord, http.StatusOK, &rec2)
	if rec2.Quality.PrevRunID != rec.ID {
		t.Fatalf("second record prev = %q, want %q", rec2.Quality.PrevRunID, rec.ID)
	}
	// Same cached frontier: perfectly consistent.
	if rec2.Quality.Consistency != 0 {
		t.Fatalf("cached-frontier consistency = %v", rec2.Quality.Consistency)
	}

	// Unknown ID is a 404.
	getJSON(t, ts.URL+"/runs/run-999999", http.StatusNotFound, nil)
}

func TestRunsListAndQualitySeries(t *testing.T) {
	svc, wl, _ := buildObservableService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		postOptimize(t, ts.URL, OptimizeRequest{Workload: wl, Probes: 12})
	}

	var list struct {
		Runs []RunSummary `json:"runs"`
	}
	getJSON(t, ts.URL+"/runs", http.StatusOK, &list)
	if len(list.Runs) != 3 {
		t.Fatalf("/runs returned %d, want 3", len(list.Runs))
	}
	for _, r := range list.Runs {
		if r.Workload != wl || r.ID == "" || r.FrontierPoints == 0 {
			t.Fatalf("bad summary: %+v", r)
		}
	}

	getJSON(t, ts.URL+"/runs?limit=1", http.StatusOK, &list)
	if len(list.Runs) != 1 {
		t.Fatalf("limit ignored: %d", len(list.Runs))
	}
	getJSON(t, ts.URL+"/runs?workload=absent", http.StatusOK, &list)
	if len(list.Runs) != 0 {
		t.Fatalf("workload filter ignored: %d", len(list.Runs))
	}
	getJSON(t, ts.URL+"/runs?since=not-a-time", http.StatusBadRequest, nil)

	var series struct {
		Workload string         `json:"workload"`
		Series   []QualityPoint `json:"series"`
	}
	getJSON(t, ts.URL+"/workloads/"+wl+"/quality", http.StatusOK, &series)
	if series.Workload != wl || len(series.Series) != 3 {
		t.Fatalf("quality series = %+v", series)
	}
	for i, p := range series.Series {
		if p.ID == "" || p.Hypervolume < 0 {
			t.Fatalf("bad quality point: %+v", p)
		}
		if i > 0 && p.Time.Before(series.Series[i-1].Time) {
			t.Fatal("series out of order")
		}
	}
	getJSON(t, ts.URL+"/workloads/absent/quality", http.StatusNotFound, nil)
}

func TestRunsEndpointsWithoutRegistry(t *testing.T) {
	svc, _ := buildTelemetryService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	getJSON(t, ts.URL+"/runs", http.StatusServiceUnavailable, nil)
	getJSON(t, ts.URL+"/runs/run-000001", http.StatusServiceUnavailable, nil)
	getJSON(t, ts.URL+"/workloads/x/quality", http.StatusServiceUnavailable, nil)
	// Health does not depend on the registry; readiness checks only the
	// model server when no registry is configured.
	getJSON(t, ts.URL+"/healthz", http.StatusOK, nil)
	getJSON(t, ts.URL+"/readyz", http.StatusOK, nil)
}

func TestReadyzGates(t *testing.T) {
	svc, wl, reg := buildObservableService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var report struct {
		Status string            `json:"status"`
		Checks map[string]string `json:"checks"`
	}
	getJSON(t, ts.URL+"/readyz", http.StatusOK, &report)
	if report.Status != "ready" || report.Checks["modelserver"] != "ok" || report.Checks["runlog"] != "ok" {
		t.Fatalf("readyz = %+v", report)
	}

	postOptimize(t, ts.URL, OptimizeRequest{Workload: wl, Probes: 12})

	// Close the registry out from under the service: it is no longer
	// writable, so the service must stop reporting ready.
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable, &report)
	if report.Status != "not ready" || report.Checks["runlog"] == "ok" {
		t.Fatalf("readyz after close = %+v", report)
	}

	// A service whose model server has no trace store is not ready either.
	bare := New(modelserver.New(spark.BatchSpace(), nil, modelserver.Config{}))
	ts2 := httptest.NewServer(bare.Handler())
	defer ts2.Close()
	getJSON(t, ts2.URL+"/readyz", http.StatusServiceUnavailable, &report)
	if report.Checks["modelserver"] == "ok" {
		t.Fatalf("modelserver check = %+v", report)
	}
	getJSON(t, ts2.URL+"/healthz", http.StatusOK, nil)
}

func TestReadyzReportsWriteFailure(t *testing.T) {
	// Force a real disk-write failure: a tiny rotation bound plus a directory
	// squatting on the rotated path makes the rename inside rotation fail.
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	if err := os.MkdirAll(runlog.RotatedPath(path, 1), 0o755); err != nil {
		t.Fatal(err)
	}
	reg, err := runlog.Open(path, runlog.Options{MaxBytes: 16, Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	svc, wl := buildTelemetryService(t)
	svc.Runs = reg
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	// First record fits the fresh file; the second forces the failing rotate.
	postOptimize(t, ts.URL, OptimizeRequest{Workload: wl, Probes: 12})
	postOptimize(t, ts.URL, OptimizeRequest{Workload: wl, Probes: 12})
	deadline := time.Now().Add(5 * time.Second)
	for reg.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if reg.Err() == nil {
		t.Fatal("registry write failure not surfaced")
	}
	var report struct {
		Status string            `json:"status"`
		Checks map[string]string `json:"checks"`
	}
	getJSON(t, ts.URL+"/readyz", http.StatusServiceUnavailable, &report)
	if report.Status != "not ready" || report.Checks["runlog"] == "ok" {
		t.Fatalf("readyz = %+v", report)
	}
}

func TestQualityMetricsExported(t *testing.T) {
	svc, wl, _ := buildObservableService(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	postOptimize(t, ts.URL, OptimizeRequest{Workload: wl, Probes: 12})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)
	for _, name := range []string{
		telemetry.MetricFrontierHypervolume,
		telemetry.MetricFrontierCoverage,
		telemetry.MetricRunQualityDelta,
		telemetry.MetricSolveLatency,
		telemetry.MetricRunRecords,
	} {
		if !strings.Contains(text, name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	// The per-workload breakouts appear with the workload label.
	if !strings.Contains(text, telemetry.MetricFrontierHypervolume+`{workload="`+wl+`"}`) {
		t.Error("/metrics missing per-workload hypervolume gauge")
	}
	// Exactly one SLO counter moved for this workload.
	ok := strings.Contains(text, telemetry.MetricSolveSLOOk+`{workload="`+wl+`"} 1`)
	breach := strings.Contains(text, telemetry.MetricSolveSLOBreach+`{workload="`+wl+`"} 1`)
	if ok == breach {
		t.Errorf("SLO counters inconsistent (ok=%v breach=%v)", ok, breach)
	}
}

func TestRunRegistryPersistsAcrossServiceRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runs.jsonl")
	reg, err := runlog.Open(path, runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc, wl := buildTelemetryService(t)
	svc.Runs = reg
	resp, err := svc.Optimize(OptimizeRequest{Workload: wl, Probes: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new registry over the same file serves the old record.
	reg2, err := runlog.Open(path, runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	svc2, wl2 := buildTelemetryService(t)
	svc2.Runs = reg2
	ts := httptest.NewServer(svc2.Handler())
	defer ts.Close()
	var rec runlog.Record
	getJSON(t, ts.URL+"/runs/"+resp.RunRecord, http.StatusOK, &rec)
	if rec.Workload != wl {
		t.Fatalf("restored record = %+v", rec)
	}
	// And new runs chain onto the restored history.
	out := postOptimize(t, ts.URL, OptimizeRequest{Workload: wl2, Probes: 12})
	var rec2 runlog.Record
	getJSON(t, ts.URL+"/runs/"+out.RunRecord, http.StatusOK, &rec2)
	if rec2.Quality.PrevRunID != rec.ID {
		t.Fatalf("post-restart prev = %q, want %q", rec2.Quality.PrevRunID, rec.ID)
	}
}
