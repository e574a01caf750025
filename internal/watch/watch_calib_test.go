package watch

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/calib"
	"repro/internal/telemetry"
)

func newTestLedger(t *testing.T, tel *telemetry.Telemetry) *calib.Ledger {
	t.Helper()
	l, err := calib.Open(filepath.Join(t.TempDir(), "calib.jsonl"), calib.Options{
		Window:    16,
		Telemetry: tel,
		Now:       func() time.Time { return time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC) },
	})
	if err != nil {
		t.Fatalf("calib.Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestCalibDriftAlert(t *testing.T) {
	tel := telemetry.New()
	clock := newClock()
	led := newTestLedger(t, tel)
	w := newWatchdog(t, Config{Telemetry: tel, Calib: led, Now: clock.now})

	observe := func(n int, actual float64) {
		for i := 0; i < n; i++ {
			if _, err := led.Observe(calib.Pair{
				Workload:  "q7",
				Run:       "run-000042",
				Predicted: map[string]float64{"latency": 10},
				Actual:    map[string]float64{"latency": actual},
			}); err != nil {
				t.Fatalf("Observe: %v", err)
			}
		}
	}

	// 7 heavily biased pairs: under calibMinPairs (8), no alert yet.
	observe(7, 25) // rel err (25-10)/25 = 0.6 >= 0.35
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("sweep under min pairs raised %+v", got)
	}
	// The 8th pair crosses the floor: calib_drift fires within one sweep.
	observe(1, 25)
	clock.tick(15 * time.Second)
	raised := w.EvalOnce()
	if len(raised) != 1 || raised[0].Rule != "calib_drift" {
		t.Fatalf("want one calib_drift, got %+v", raised)
	}
	a := raised[0]
	if a.Workload != "q7" || a.Value < 0.59 || a.Value > 0.61 {
		t.Fatalf("bad alert fields: %+v", a)
	}
	if a.RunRecord != "run-000042" {
		t.Fatalf("alert not joined to the last run: %+v", a)
	}
	// MAPE 0.6 < 2*0.35: warning, not critical.
	if a.Severity != "warning" {
		t.Fatalf("severity = %q", a.Severity)
	}

	// Edge-triggered: same evidence, no repeat.
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("repeat sweep re-raised %+v", got)
	}
	// New observed outcomes are new evidence: the persisting drift re-raises.
	observe(2, 25)
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 1 {
		t.Fatalf("new evidence sweep raised %+v", got)
	}
	// Accurate outcomes slide the window healthy and clear the latch.
	observe(16, 10)
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("healthy window raised %+v", got)
	}
}

func TestCoverageCollapseAlert(t *testing.T) {
	tel := telemetry.New()
	clock := newClock()
	led := newTestLedger(t, tel)
	w := newWatchdog(t, Config{Telemetry: tel, Calib: led, Now: clock.now})

	// Outcomes 3 sigma out with a tiny predicted std: every interval misses,
	// coverage 0 < floor/2 -> critical. MAPE stays under the drift ceiling
	// ((13-10)/13 = 0.23 < 0.35) so only coverage_collapse fires.
	for i := 0; i < 8; i++ {
		if _, err := led.Observe(calib.Pair{
			Workload:  "q3",
			Predicted: map[string]float64{"latency": 10},
			Std:       map[string]float64{"latency": 0.5},
			Actual:    map[string]float64{"latency": 13},
		}); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	clock.tick(15 * time.Second)
	raised := w.EvalOnce()
	if len(raised) != 1 || raised[0].Rule != "coverage_collapse" {
		t.Fatalf("want one coverage_collapse, got %+v", raised)
	}
	if raised[0].Severity != "critical" || raised[0].Value != 0 {
		t.Fatalf("bad alert fields: %+v", raised[0])
	}

	// Well-covered outcomes restore the window; the latch clears.
	for i := 0; i < 16; i++ {
		led.Observe(calib.Pair{
			Workload:  "q3",
			Predicted: map[string]float64{"latency": 10},
			Std:       map[string]float64{"latency": 2},
			Actual:    map[string]float64{"latency": 11},
		})
	}
	clock.tick(15 * time.Second)
	if got := w.EvalOnce(); len(got) != 0 {
		t.Fatalf("healthy window raised %+v", got)
	}
}
