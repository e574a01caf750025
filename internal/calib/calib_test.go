package calib

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/runlog"
	"repro/internal/telemetry"
)

func testClock() func() time.Time {
	t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Second)
	}
}

func openTestLedger(t *testing.T, dir string, opts Options) *Ledger {
	t.Helper()
	if opts.Now == nil {
		opts.Now = testClock()
	}
	l, err := Open(filepath.Join(dir, "calib.jsonl"), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestObserveComputesRelativeErrors(t *testing.T) {
	l := openTestLedger(t, t.TempDir(), Options{})
	p, err := l.Observe(Pair{
		Workload:  "q1",
		Run:       "run-000001",
		Predicted: map[string]float64{"latency": 10, "cores": 8},
		Actual:    map[string]float64{"latency": 12, "cores": 8},
	})
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	if p.ID != "obs-000001" {
		t.Fatalf("ID = %q, want obs-000001", p.ID)
	}
	// latency: (12-10)/12; cores: exact match.
	if got, want := p.RelErr["latency"], 2.0/12.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("latency rel err = %g, want %g", got, want)
	}
	if got := p.RelErr["cores"]; got != 0 {
		t.Errorf("cores rel err = %g, want 0", got)
	}
	stats := l.Calibration("q1")
	if len(stats) != 2 {
		t.Fatalf("Calibration returned %d series, want 2", len(stats))
	}
	// Sorted by objective: cores first.
	if stats[0].Objective != "cores" || stats[1].Objective != "latency" {
		t.Fatalf("objective order = %q, %q", stats[0].Objective, stats[1].Objective)
	}
	lat := stats[1]
	if lat.Pairs != 1 || math.Abs(lat.MAPE-2.0/12.0) > 1e-12 {
		t.Errorf("latency stats = %+v", lat)
	}
	if lat.Coverage != CoverageUnknown {
		t.Errorf("Coverage = %g, want CoverageUnknown without std", lat.Coverage)
	}
	if lat.LastRun != "run-000001" {
		t.Errorf("LastRun = %q", lat.LastRun)
	}
}

func TestObserveNoOverlap(t *testing.T) {
	l := openTestLedger(t, t.TempDir(), Options{})
	_, err := l.Observe(Pair{
		Workload:  "q1",
		Predicted: map[string]float64{"latency": 10},
		Actual:    map[string]float64{"throughput": 3},
	})
	if err != ErrNoOverlap {
		t.Fatalf("err = %v, want ErrNoOverlap", err)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %d after rejected observe", l.Len())
	}
}

func TestWindowStats(t *testing.T) {
	l := openTestLedger(t, t.TempDir(), Options{Window: 4, Z: 2})
	// Signed rel errors: predicted 10, actuals chosen for known errors.
	// actual 20 -> +0.5, actual 8 -> -0.25, twice each; window mean |e| =
	// 0.375, bias 0.125. Std 1 on the first two pairs only: |20-10| > 2*1
	// (uncovered), |8-10| <= 2*1 (covered) -> coverage 0.5 over 2 pairs.
	obs := []struct {
		actual float64
		std    float64
	}{{20, 1}, {8, 1}, {20, 0}, {8, 0}}
	for _, o := range obs {
		p := Pair{
			Workload:  "w",
			Predicted: map[string]float64{"latency": 10},
			Actual:    map[string]float64{"latency": o.actual},
		}
		if o.std > 0 {
			p.Std = map[string]float64{"latency": o.std}
		}
		if _, err := l.Observe(p); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	st := l.Calibration("w")[0]
	if st.Pairs != 4 {
		t.Fatalf("Pairs = %d", st.Pairs)
	}
	if math.Abs(st.MAPE-0.375) > 1e-12 {
		t.Errorf("MAPE = %g, want 0.375", st.MAPE)
	}
	if math.Abs(st.Bias-0.125) > 1e-12 {
		t.Errorf("Bias = %g, want 0.125", st.Bias)
	}
	if st.CoveragePairs != 2 || math.Abs(st.Coverage-0.5) > 1e-12 {
		t.Errorf("Coverage = %g over %d pairs, want 0.5 over 2", st.Coverage, st.CoveragePairs)
	}
	// Sorted abs errors: 0.25, 0.25, 0.5, 0.5 -> interpolated p50 = 0.375,
	// p90 = 0.5.
	if math.Abs(st.P50-0.375) > 1e-9 || math.Abs(st.P90-0.5) > 1e-9 {
		t.Errorf("P50/P90 = %g/%g", st.P50, st.P90)
	}

	// The window slides: four more pairs at +0.5 displace the -0.25s.
	for i := 0; i < 4; i++ {
		l.Observe(Pair{
			Workload:  "w",
			Predicted: map[string]float64{"latency": 10},
			Actual:    map[string]float64{"latency": 20},
		})
	}
	st = l.Calibration("w")[0]
	if math.Abs(st.MAPE-0.5) > 1e-12 || math.Abs(st.Bias-0.5) > 1e-12 {
		t.Errorf("slid window MAPE/Bias = %g/%g, want 0.5/0.5", st.MAPE, st.Bias)
	}
	if st.Total != 8 {
		t.Errorf("Total = %d, want 8", st.Total)
	}
}

func TestReopenReplaysWindowsAndContinuesIDs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "calib.jsonl")
	l, err := Open(path, Options{Now: testClock()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Observe(Pair{
			Workload:  "q9",
			Predicted: map[string]float64{"latency": 10},
			Actual:    map[string]float64{"latency": 15},
		}); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := Open(path, Options{Now: testClock()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.Len() != 3 {
		t.Fatalf("reopened Len = %d, want 3", re.Len())
	}
	st := re.Calibration("q9")
	if len(st) != 1 || st[0].Pairs != 3 {
		t.Fatalf("reopened stats = %+v", st)
	}
	if math.Abs(st[0].MAPE-1.0/3.0) > 1e-12 {
		t.Errorf("reopened MAPE = %g", st[0].MAPE)
	}
	p, err := re.Observe(Pair{
		Workload:  "q9",
		Predicted: map[string]float64{"latency": 10},
		Actual:    map[string]float64{"latency": 15},
	})
	if err != nil {
		t.Fatalf("Observe after reopen: %v", err)
	}
	if p.ID != "obs-000004" {
		t.Errorf("ID after reopen = %q, want obs-000004", p.ID)
	}
}

func TestReopenRepairsTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "calib.jsonl")
	l, err := Open(path, Options{Now: testClock()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 2; i++ {
		l.Observe(Pair{
			Workload:  "q1",
			Predicted: map[string]float64{"latency": 10},
			Actual:    map[string]float64{"latency": 11},
		})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate a crash mid-append: a half-written third line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":"obs-000003","workload":"q1","pred`)
	f.Close()

	re, err := Open(path, Options{Now: testClock()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if re.Len() != 2 {
		t.Fatalf("Len after repair = %d, want 2", re.Len())
	}
	// The repaired file must accept a clean append on its own line.
	p, err := re.Observe(Pair{
		Workload:  "q1",
		Predicted: map[string]float64{"latency": 10},
		Actual:    map[string]float64{"latency": 11},
	})
	if err != nil {
		t.Fatalf("Observe after repair: %v", err)
	}
	if p.ID != "obs-000003" {
		t.Errorf("ID after repair = %q, want obs-000003 (partial line discarded)", p.ID)
	}
	if err := re.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	re.Close()
	prs, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(prs) != 3 {
		t.Fatalf("Load returned %d pairs, want 3", len(prs))
	}
}

func TestRotationAndLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "calib.jsonl")
	// ~7 pairs per 1 KiB file: 20 pairs spread over a few rotated files, all
	// within Keep so none are dropped.
	l, err := Open(path, Options{MaxBytes: 1024, Keep: 10, Now: testClock()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const total = 20
	for i := 0; i < total; i++ {
		if _, err := l.Observe(Pair{
			Workload:  "q1",
			Predicted: map[string]float64{"latency": 10},
			Actual:    map[string]float64{"latency": float64(10 + i)},
		}); err != nil {
			t.Fatalf("Observe %d: %v", i, err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	l.Close()
	if _, err := os.Stat(runlog.RotatedPath(path, 1)); err != nil {
		t.Fatalf("expected rotation at 256 bytes: %v", err)
	}
	prs, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(prs) != total {
		t.Fatalf("Load returned %d pairs across rotated files, want %d", len(prs), total)
	}
	for i, p := range prs {
		if want := fmt.Sprintf("obs-%06d", i+1); p.ID != want {
			t.Fatalf("pair %d ID = %q, want %q (oldest-first order)", i, p.ID, want)
		}
	}
}

func TestTelemetrySeries(t *testing.T) {
	tel := telemetry.New()
	l := openTestLedger(t, t.TempDir(), Options{Telemetry: tel})
	l.Observe(Pair{
		Workload:  "q1",
		Predicted: map[string]float64{"latency": 10},
		Std:       map[string]float64{"latency": 5},
		Actual:    map[string]float64{"latency": 12},
	})
	snap := tel.Metrics.Snapshot()
	if got := snap.Counters[telemetry.MetricCalibPairs]; got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.MetricCalibPairs, got)
	}
	mape := telemetry.Labeled2(telemetry.MetricCalibMAPE, "workload", "q1", "objective", "latency")
	if got, ok := snap.Gauges[mape]; !ok || math.Abs(got-2.0/12.0) > 1e-12 {
		t.Errorf("%s = %g (present %v), want %g", mape, got, ok, 2.0/12.0)
	}
	cov := telemetry.Labeled2(telemetry.MetricCalibCoverage, "workload", "q1", "objective", "latency")
	if got := snap.Gauges[cov]; got != 1 {
		t.Errorf("%s = %g, want 1 (|12-10| <= 1.96*5)", cov, got)
	}
	if h := snap.Histograms[telemetry.MetricCalibAbsErr]; h.Count != 1 {
		t.Errorf("%s count = %d, want 1", telemetry.MetricCalibAbsErr, h.Count)
	}
}

func TestConcurrentObserve(t *testing.T) {
	dir := t.TempDir()
	l := openTestLedger(t, dir, Options{Window: 16})
	var wg sync.WaitGroup
	const workers, each = 8, 25
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wl := fmt.Sprintf("w%d", w%3)
			for i := 0; i < each; i++ {
				if _, err := l.Observe(Pair{
					Workload:  wl,
					Predicted: map[string]float64{"latency": 10},
					Actual:    map[string]float64{"latency": float64(8 + i%5)},
				}); err != nil {
					t.Errorf("Observe: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if l.Len() != workers*each {
		t.Fatalf("Len = %d, want %d", l.Len(), workers*each)
	}
	// Every pair got a distinct ID and reached disk.
	prs, err := Load(filepath.Join(dir, "calib.jsonl"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	seen := map[string]bool{}
	for _, p := range prs {
		if seen[p.ID] {
			t.Fatalf("duplicate ID %s", p.ID)
		}
		seen[p.ID] = true
	}
	if len(prs) != workers*each {
		t.Fatalf("Load returned %d, want %d", len(prs), workers*each)
	}
}

func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %g", q)
	}
	if q := quantile([]float64{3}, 0.9); q != 3 {
		t.Errorf("single quantile = %g", q)
	}
	sorted := []float64{1, 2, 3, 4}
	if q := quantile(sorted, 0); q != 1 {
		t.Errorf("q0 = %g", q)
	}
	if q := quantile(sorted, 1); q != 4 {
		t.Errorf("q1 = %g", q)
	}
	if q := quantile(sorted, 0.5); math.Abs(q-2.5) > 1e-12 {
		t.Errorf("q0.5 = %g, want 2.5", q)
	}
}

// TestSummarizeMatchesLiveLedger pins the offline path: Load + Summarize over
// the persisted pairs must reproduce exactly what the live ledger served.
func TestSummarizeMatchesLiveLedger(t *testing.T) {
	dir := t.TempDir()
	l := openTestLedger(t, dir, Options{Window: 4, Z: 2})
	for i := 0; i < 7; i++ {
		if _, err := l.Observe(Pair{
			Run:       fmt.Sprintf("run-%03d", i),
			Workload:  "q1",
			Predicted: map[string]float64{"latency": 10, "cores": 32},
			Std:       map[string]float64{"latency": 2},
			Actual:    map[string]float64{"latency": 10 + float64(i), "cores": 32},
		}); err != nil {
			t.Fatalf("Observe: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	pairs, err := Load(filepath.Join(dir, "calib.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(pairs, 4, 2)
	want := l.Calibration("q1")
	if len(sum) != 1 || !reflect.DeepEqual(sum["q1"], want) {
		t.Fatalf("offline summary diverges:\n got %+v\nwant %+v", sum["q1"], want)
	}
}
