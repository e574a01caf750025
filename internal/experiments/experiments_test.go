package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/objective"
)

// quickLab builds a lab sized for test speed.
func quickLab() *Lab {
	l := NewLab(1)
	l.Samples = 30
	l.DNNCfg.Epochs = 60
	l.GPCfg.MLEIters = 15
	return l
}

func TestBatchSetup(t *testing.T) {
	l := quickLab()
	s, err := l.BatchSetup(9, KindGP, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Models) != 2 || s.Names[0] != ObjLatency || s.Names[1] != ObjCores {
		t.Fatalf("bad setup: %v", s.Names)
	}
	if len(s.Utopia) != 2 || s.Nadir[0] <= s.Utopia[0] {
		t.Fatalf("degenerate box: %v %v", s.Utopia, s.Nadir)
	}
	// Cores model is exact: cores in [2, 56].
	if s.Utopia[1] < 2 || s.Nadir[1] > 56 {
		t.Fatalf("cores bounds wrong: %v %v", s.Utopia[1], s.Nadir[1])
	}
	// Caching: same pointer back.
	s2, err := l.BatchSetup(9, KindGP, false)
	if err != nil || s2 != s {
		t.Fatal("setup not cached")
	}
	// Measure path works.
	p, err := s.Measure(s.DefaultConf)
	if err != nil || p[0] <= 0 {
		t.Fatalf("Measure = %v, %v", p, err)
	}
}

func TestStreamSetup(t *testing.T) {
	l := quickLab()
	s2, err := l.StreamSetup(54%63, KindGP, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Models) != 2 {
		t.Fatalf("2D stream setup has %d models", len(s2.Models))
	}
	s3, err := l.StreamSetup(54%63, KindGP, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(s3.Models) != 3 {
		t.Fatalf("3D stream setup has %d models", len(s3.Models))
	}
	// Throughput is negated: utopia (best) is more negative than nadir.
	if s2.Utopia[1] >= s2.Nadir[1] {
		t.Fatalf("negated throughput box wrong: %v %v", s2.Utopia[1], s2.Nadir[1])
	}
}

func TestCompareMethodsFig4a(t *testing.T) {
	l := quickLab()
	setup, err := l.BatchSetup(9, KindGP, false)
	if err != nil {
		t.Fatal(err)
	}
	results, err := l.CompareMethods(setup, []string{MethodPFAP, MethodPFAS, MethodWS, MethodNC}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if len(r.Frontier) == 0 {
			t.Fatalf("%s produced no frontier", r.Method)
		}
		if len(r.Series) == 0 {
			t.Fatalf("%s recorded no progress", r.Method)
		}
		// Incremental methods (PF) shrink uncertain space monotonically;
		// restart-based rungs (WS/NC) may fluctuate — that is the paper's
		// consistency argument.
		if r.Method == MethodPFAP || r.Method == MethodPFAS {
			prev := 1.0
			for _, p := range r.Series {
				if p.Uncertain > prev+0.05 {
					t.Fatalf("%s uncertain space rose: %v -> %v", r.Method, prev, p.Uncertain)
				}
				if p.Uncertain < prev {
					prev = p.Uncertain
				}
			}
		}
	}
	// PF-AP reduces uncertainty substantially.
	pf := results[0]
	if final := pf.Series[len(pf.Series)-1].Uncertain; final > 0.5 {
		t.Fatalf("PF-AP final uncertain space %v", final)
	}
	var buf bytes.Buffer
	WriteUncertainSeries(&buf, results)
	WriteTimeToFirst(&buf, results)
	WriteQualityTable(&buf, setup, results)
	if !strings.Contains(buf.String(), "PF-AP") {
		t.Fatal("missing method in output")
	}
	if !strings.Contains(buf.String(), "hypervolume") {
		t.Fatal("missing quality table in output")
	}
	hv := metrics.Hypervolume(pf.Frontier, setup.Utopia, setup.Nadir)
	if math.IsNaN(hv) || hv <= 0 || hv > 1 {
		t.Fatalf("PF-AP hypervolume = %v", hv)
	}
}

func TestCompareMethodsMOBO(t *testing.T) {
	l := quickLab()
	setup, err := l.BatchSetup(3, KindGP, false)
	if err != nil {
		t.Fatal(err)
	}
	results, err := l.CompareMethods(setup, []string{MethodEvo, MethodQEHVI, MethodPESM}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.Frontier) == 0 {
			t.Fatalf("%s produced no frontier", r.Method)
		}
	}
	if _, err := l.CompareMethods(setup, []string{"bogus"}, 4, 2); err == nil {
		t.Fatal("expected error for unknown method")
	}
}

func TestEvoInconsistency(t *testing.T) {
	l := quickLab()
	setup, err := l.BatchSetup(9, KindGP, false)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := l.RunEvoInconsistency(setup, []int{6, 8, 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc.Frontiers) != 3 || len(inc.Inconsistency) != 3 {
		t.Fatalf("bad result: %+v", inc)
	}
	if inc.Inconsistency[0] != 0 {
		t.Fatal("first run should have zero inconsistency")
	}
}

func TestAcrossJobs(t *testing.T) {
	l := quickLab()
	var setups []*Setup
	for _, id := range []int{3, 9} {
		s, err := l.BatchSetup(id, KindGP, false)
		if err != nil {
			t.Fatal(err)
		}
		setups = append(setups, s)
	}
	thresholds := []time.Duration{100 * time.Millisecond, time.Second, 10 * time.Second}
	sum, err := l.AcrossJobs(setups, []string{MethodPFAP, MethodEvo}, 8, thresholds, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != 2 || len(sum.Median) != 2 {
		t.Fatalf("summary wrong: %+v", sum)
	}
	// The incremental method's medians fall (weakly) with time.
	for i := range sum.Methods {
		if sum.Methods[i] != MethodPFAP {
			continue
		}
		for j := 1; j < len(thresholds); j++ {
			if sum.Median[i][j] > sum.Median[i][j-1]+1e-9 {
				t.Fatalf("%s median rose over time: %v", sum.Methods[i], sum.Median[i])
			}
		}
	}
	var buf bytes.Buffer
	sum.Print(&buf)
	if !strings.Contains(buf.String(), "median uncertain space") {
		t.Fatal("missing header")
	}
}

func TestEndToEndExpt3(t *testing.T) {
	l := quickLab()
	rows, err := l.EndToEnd([]int{5}, KindGP, false, [2]float64{0.5, 0.5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.UdaoActual[0] <= 0 || r.OtterActual[0] <= 0 || r.ExpertActual[0] <= 0 {
		t.Fatalf("bad measurements: %+v", r)
	}
	var buf bytes.Buffer
	WriteFig6(&buf, rows, true)
	WriteFig6(&buf, rows, false)
	if !strings.Contains(buf.String(), "udao-lat%") {
		t.Fatal("missing header")
	}
	s := Summarize(rows)
	if s.UdaoTotalLat <= 0 {
		t.Fatalf("summary wrong: %+v", s)
	}
	top := TopLongRunning(rows, 5)
	if len(top) != 1 {
		t.Fatalf("top = %d", len(top))
	}
}

func TestStreamEndToEnd(t *testing.T) {
	l := quickLab()
	rows, err := l.StreamEndToEnd([]int{2}, [2]float64{0.9, 0.1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].UdaoThr <= 0 {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestPIRAnalysis(t *testing.T) {
	l := quickLab()
	rows, err := l.EndToEnd([]int{7}, KindGP, false, [2]float64{0.9, 0.1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	p := AnalyzePIR(rows)
	if p.UdaoCount != 1 || p.OtterCount != 1 || len(p.Points) != 2 {
		t.Fatalf("PIR analysis wrong: %+v", p)
	}
	var buf bytes.Buffer
	p.Print(&buf)
	if !strings.Contains(buf.String(), "UDAO") {
		t.Fatal("missing system row")
	}
}

func TestSolverComparison(t *testing.T) {
	l := quickLab()
	setup, err := l.BatchSetup(11, KindGP, false)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := l.SolverComparison(setup, KindGP, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The exact solver must be slower (that's its role).
	if rows[1].TimePerCO <= rows[0].TimePerCO {
		t.Logf("note: exact (%v) not slower than MOGD (%v) on this machine", rows[1].TimePerCO, rows[0].TimePerCO)
	}
	var buf bytes.Buffer
	WriteSolverRows(&buf, rows)
	if !strings.Contains(buf.String(), "MOGD") {
		t.Fatal("missing solver row")
	}
}

func TestSpeedups(t *testing.T) {
	l := quickLab()
	setup, err := l.BatchSetup(9, KindGP, false)
	if err != nil {
		t.Fatal(err)
	}
	table, err := l.Speedups([]*Setup{setup}, []string{MethodEvo}, 6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.MedianRatio) != 1 || table.MedianRatio[0] <= 0 {
		t.Fatalf("speedup table wrong: %+v", table)
	}
	var buf bytes.Buffer
	table.Print(&buf)
	if !strings.Contains(buf.String(), "Evo") {
		t.Fatal("missing method")
	}
}

func TestAblations(t *testing.T) {
	l := quickLab()
	setup, err := l.BatchSetup(9, KindGP, false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer

	rows, err := l.AblationQueueOrder(setup, 8, 10)
	if err != nil || len(rows) != 3 {
		t.Fatalf("queue order ablation: %v %v", rows, err)
	}
	WriteAblation(&buf, "queue order", "-", rows)

	rows, err = l.AblationMultiStart(setup, []int{1, 4, 8}, 11)
	if err != nil || len(rows) != 3 {
		t.Fatalf("multistart ablation: %v %v", rows, err)
	}
	WriteAblation(&buf, "multi-start", "objective", rows)

	rows, err = l.AblationGridDegree(setup, []int{2, 3}, 12, 12)
	if err != nil || len(rows) != 2 {
		t.Fatalf("grid ablation: %v %v", rows, err)
	}
	WriteAblation(&buf, "grid degree", "probes", rows)

	rows, err = l.AblationUncertaintyAlpha(setup, []float64{0, 1}, 13)
	if err != nil || len(rows) != 2 {
		t.Fatalf("alpha ablation: %v %v", rows, err)
	}
	WriteAblation(&buf, "alpha", "actual-lat", rows)

	if !strings.Contains(buf.String(), "ablation:") {
		t.Fatal("missing ablation output")
	}
}

func TestFrontierRows(t *testing.T) {
	l := quickLab()
	setup, err := l.BatchSetup(9, KindGP, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.RunPF(setup, true, 8, 15)
	if err != nil {
		t.Fatal(err)
	}
	rows := FrontierRows(res.Frontier)
	if len(rows) != len(res.Frontier) {
		t.Fatalf("rows = %d, frontier = %d", len(rows), len(res.Frontier))
	}
}

func TestUncertainAt(t *testing.T) {
	r := MethodResult{Series: []SeriesPoint{
		{Elapsed: time.Second, Uncertain: 0.5},
		{Elapsed: 2 * time.Second, Uncertain: 0.2},
	}}
	if r.UncertainAt(500*time.Millisecond) != 1 {
		t.Fatal("before first snapshot should be 1")
	}
	if r.UncertainAt(1500*time.Millisecond) != 0.5 {
		t.Fatal("interpolation wrong")
	}
	if r.UncertainAt(time.Minute) != 0.2 {
		t.Fatal("after last snapshot wrong")
	}
}

func TestKnobImportance(t *testing.T) {
	l := quickLab()
	setup, err := l.BatchSetup(9, KindGP, false)
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := l.KnobImportance(setup, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 6 {
		t.Fatalf("ranks = %d", len(ranks))
	}
	// The preferred resource knobs must appear (they occupy half the budget).
	found := map[string]bool{}
	for _, r := range ranks {
		found[r.Knob] = true
	}
	if !found["spark.executor.instances"] || !found["spark.executor.cores"] {
		t.Fatalf("resource knobs missing from selection: %v", ranks)
	}
	var buf bytes.Buffer
	WriteKnobRanks(&buf, ranks)
	if !strings.Contains(buf.String(), "spark.executor.instances") {
		t.Fatal("missing knob in output")
	}
}

func TestCompareStrategies(t *testing.T) {
	l := quickLab()
	setup, err := l.BatchSetup(9, KindGP, false)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := l.CompareStrategies(setup, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // UN, WUN, WA-WUN + SLL/SLR/KPL/KPR in 2D
		t.Fatalf("strategies = %d", len(rows))
	}
	// The latency-favoring WUN must not pick a higher-latency point than UN.
	var un, wun objective.Point
	for _, r := range rows {
		switch r.Strategy {
		case "UN":
			un = r.F
		case "WUN(0.9,0.1)":
			wun = r.F
		}
	}
	if wun[0] > un[0]+1e-9 {
		t.Fatalf("WUN(0.9,0.1) picked higher latency than UN: %v vs %v", wun[0], un[0])
	}
	var buf bytes.Buffer
	WriteStrategyRows(&buf, setup.Names, rows)
	if !strings.Contains(buf.String(), "KPL") {
		t.Fatal("missing strategy in output")
	}
}
