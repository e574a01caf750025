package watch

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// burn raises one slo_burn alert per workload on a watchdog that has taken
// its baseline sweep.
func burn(t *testing.T, w *Watchdog, tel *telemetry.Telemetry, clock *fakeClock, workloads ...string) []Alert {
	t.Helper()
	for _, wl := range workloads {
		tel.Metrics.Counter(telemetry.Labeled(telemetry.MetricSolveSLOBreach, "workload", wl)).Add(5)
	}
	clock.tick(15 * time.Second)
	raised := w.EvalOnce()
	if len(raised) != len(workloads) {
		t.Fatalf("raised %+v, want one slo_burn per workload %v", raised, workloads)
	}
	return raised
}

// startWatchdog opens a watchdog over the alert log and flight directory in
// dir, with fresh metrics, and takes its baseline sweep.
func startWatchdog(t *testing.T, dir string, clock *fakeClock) (*Watchdog, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New()
	w := newWatchdog(t, Config{
		Telemetry: tel,
		AlertPath: filepath.Join(dir, "alerts.jsonl"),
		Now:       clock.now,
		Flight: FlightConfig{
			Dir:         filepath.Join(dir, "flight"),
			MinInterval: -1, // no rate limit, no CPU profile
		},
	})
	w.EvalOnce()
	return w, tel
}

func TestAlertIDsContinueAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clock := newClock()
	w, tel := startWatchdog(t, dir, clock)
	first := burn(t, w, tel, clock, "q1", "q2")
	if first[0].ID != "alert-000001" || first[1].ID != "alert-000002" {
		t.Fatalf("first alerts: %+v", first)
	}
	w.Stop()

	w2, tel2 := startWatchdog(t, dir, clock)
	if got := w2.Alerts(0); len(got) != 2 || got[0].ID != "alert-000002" || got[1].ID != "alert-000001" {
		t.Fatalf("Alerts() after restart = %+v, want the two earlier alerts newest first", got)
	}
	next := burn(t, w2, tel2, clock, "q3")
	if next[0].ID != "alert-000003" {
		t.Fatalf("first alert after restart = %q, want alert-000003", next[0].ID)
	}
	if got := w2.Alerts(0); len(got) != 3 || got[0].ID != "alert-000003" || got[2].Workload != "q1" {
		t.Fatalf("Alerts() = %+v", got)
	}
}

func TestRestartKeepsFlightBundles(t *testing.T) {
	dir := t.TempDir()
	clock := newClock()
	w, tel := startWatchdog(t, dir, clock)
	before := burn(t, w, tel, clock, "q1")[0]
	if before.Bundle == "" {
		t.Fatal("no flight bundle captured")
	}
	w.Stop()

	w2, tel2 := startWatchdog(t, dir, clock)
	after := burn(t, w2, tel2, clock, "q2")[0]
	if after.Bundle == "" || after.Bundle == before.Bundle {
		t.Fatalf("bundle after restart = %q, before = %q", after.Bundle, before.Bundle)
	}
	b, err := os.ReadFile(filepath.Join(before.Bundle, "alert.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got Alert
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != before.ID || got.Workload != "q1" {
		t.Fatalf("pre-restart bundle now holds %+v", got)
	}
}
