// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artifact; see DESIGN.md §2 for the index). Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark executes a scaled-down configuration of the corresponding
// experiment (fewer workloads / points than the paper) so the whole suite
// completes in minutes; cmd/udao-bench runs the full-scale versions. The
// reported ns/op is the end-to-end cost of regenerating the artifact once.
package udao

import (
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

var (
	labOnce sync.Once
	lab     *experiments.Lab
)

func benchLab() *experiments.Lab {
	labOnce.Do(func() {
		lab = experiments.NewLab(1)
		lab.Samples = 40
		lab.DNNCfg.Epochs = 80
		lab.GPCfg.MLEIters = 20
	})
	return lab
}

func batchIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = (i * 7) % 258
	}
	return ids
}

func streamIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = (i * 5) % 63
	}
	return ids
}

// BenchmarkFig1cLatencyVsOttertune regenerates Fig. 1(c): TPCx-BB Q2 latency
// under UDAO vs OtterTune at two preference settings.
func BenchmarkFig1cLatencyVsOttertune(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		for _, w := range [][2]float64{{0.5, 0.5}, {0.9, 0.1}} {
			rows, err := l.EndToEnd([]int{1}, experiments.KindGP, false, w, 1)
			if err != nil {
				b.Fatal(err)
			}
			if rows[0].UdaoActual[0] <= 0 {
				b.Fatal("bad row")
			}
		}
	}
}

// BenchmarkFig4aUncertainSpace2D regenerates Fig. 4(a): uncertain space vs
// time for PF-AP/PF-AS/WS/NC on batch job 9.
func BenchmarkFig4aUncertainSpace2D(b *testing.B) {
	l := benchLab()
	setup, err := l.BatchSetup(9, experiments.KindGP, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		results, err := l.CompareMethods(setup,
			[]string{experiments.MethodPFAP, experiments.MethodPFAS, experiments.MethodWS, experiments.MethodNC}, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		experiments.WriteUncertainSeries(io.Discard, results)
	}
}

// BenchmarkFig4bFrontierWSNC regenerates Fig. 4(b): the sparse WS/NC
// frontiers.
func BenchmarkFig4bFrontierWSNC(b *testing.B) {
	l := benchLab()
	setup, err := l.BatchSetup(9, experiments.KindGP, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		results, err := l.CompareMethods(setup,
			[]string{experiments.MethodWS, experiments.MethodNC}, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			experiments.FrontierRows(r.Frontier)
		}
	}
}

// BenchmarkFig4cFrontierPF regenerates Fig. 4(c): PF-AP's denser frontier.
func BenchmarkFig4cFrontierPF(b *testing.B) {
	l := benchLab()
	setup, err := l.BatchSetup(9, experiments.KindGP, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		res, err := l.RunPF(setup, true, 12, 1)
		if err != nil {
			b.Fatal(err)
		}
		experiments.FrontierRows(res.Frontier)
	}
}

// BenchmarkFig4dUncertainSpaceMOBO regenerates Fig. 4(d): PF-AP vs
// Evo/qEHVI/PESM.
func BenchmarkFig4dUncertainSpaceMOBO(b *testing.B) {
	l := benchLab()
	setup, err := l.BatchSetup(9, experiments.KindGP, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		results, err := l.CompareMethods(setup,
			[]string{experiments.MethodPFAP, experiments.MethodEvo, experiments.MethodQEHVI, experiments.MethodPESM}, 6, 1)
		if err != nil {
			b.Fatal(err)
		}
		experiments.WriteTimeToFirst(io.Discard, results)
	}
}

// BenchmarkFig4eEvoInconsistency regenerates Fig. 4(e): Evo frontiers at
// 30/40/50 probes and their inconsistency.
func BenchmarkFig4eEvoInconsistency(b *testing.B) {
	l := benchLab()
	setup, err := l.BatchSetup(9, experiments.KindGP, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		inc, err := l.RunEvoInconsistency(setup, []int{30, 40, 50}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(inc.Frontiers) != 3 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkFig4fAllJobs regenerates Fig. 4(f): the cross-job uncertain-space
// aggregation (scaled to 4 jobs; cmd/udao-bench -expt fig4f -jobs 258 is the
// full version).
func BenchmarkFig4fAllJobs(b *testing.B) {
	l := benchLab()
	var setups []*experiments.Setup
	for _, id := range batchIDs(4) {
		s, err := l.BatchSetup(id, experiments.KindGP, false)
		if err != nil {
			b.Fatal(err)
		}
		setups = append(setups, s)
	}
	thresholds := []time.Duration{100 * time.Millisecond, time.Second, 5 * time.Second}
	for i := 0; i < b.N; i++ {
		sum, err := l.AcrossJobs(setups,
			[]string{experiments.MethodPFAP, experiments.MethodEvo, experiments.MethodNC}, 8, thresholds, 1)
		if err != nil {
			b.Fatal(err)
		}
		sum.Print(io.Discard)
	}
}

// BenchmarkFig5FrontiersStream3D regenerates Fig. 5(a)-(c): WS/NC/PF
// frontiers on streaming job 54 with 3 objectives.
func BenchmarkFig5FrontiersStream3D(b *testing.B) {
	l := benchLab()
	setup, err := l.StreamSetup(54, experiments.KindGP, true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		results, err := l.CompareMethods(setup,
			[]string{experiments.MethodWS, experiments.MethodNC, experiments.MethodPFAP}, 10, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			experiments.FrontierRows(r.Frontier)
		}
	}
}

// BenchmarkFig5dUncertainSpaceStream regenerates Fig. 5(d): all methods on
// streaming job 54, 2D.
func BenchmarkFig5dUncertainSpaceStream(b *testing.B) {
	l := benchLab()
	setup, err := l.StreamSetup(54, experiments.KindGP, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		results, err := l.CompareMethods(setup,
			[]string{experiments.MethodPFAP, experiments.MethodEvo, experiments.MethodWS,
				experiments.MethodNC, experiments.MethodQEHVI, experiments.MethodPESM}, 6, 1)
		if err != nil {
			b.Fatal(err)
		}
		experiments.WriteTimeToFirst(io.Discard, results)
	}
}

// BenchmarkFig5efAllStreamJobs regenerates Fig. 5(e)/(f): cross-job medians
// for 2D and 3D streaming.
func BenchmarkFig5efAllStreamJobs(b *testing.B) {
	l := benchLab()
	thresholds := []time.Duration{100 * time.Millisecond, time.Second, 5 * time.Second}
	for i := 0; i < b.N; i++ {
		for _, threeD := range []bool{false, true} {
			var setups []*experiments.Setup
			for _, id := range streamIDs(3) {
				s, err := l.StreamSetup(id, experiments.KindGP, threeD)
				if err != nil {
					b.Fatal(err)
				}
				setups = append(setups, s)
			}
			sum, err := l.AcrossJobs(setups,
				[]string{experiments.MethodPFAP, experiments.MethodEvo}, 8, thresholds, 1)
			if err != nil {
				b.Fatal(err)
			}
			sum.Print(io.Discard)
		}
	}
}

// BenchmarkFig8StreamDetail regenerates Fig. 8: streaming job 56 detail with
// Evo inconsistency.
func BenchmarkFig8StreamDetail(b *testing.B) {
	l := benchLab()
	setup, err := l.StreamSetup(56, experiments.KindGP, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		results, err := l.CompareMethods(setup,
			[]string{experiments.MethodPFAP, experiments.MethodPFAS, experiments.MethodEvo}, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		experiments.WriteTimeToFirst(io.Discard, results)
		if _, err := l.RunEvoInconsistency(setup, []int{20, 30}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6abAccurateBatch regenerates Fig. 6(a)/(b): UDAO vs OtterTune
// under accurate GP models (3 test jobs per weight setting).
func BenchmarkFig6abAccurateBatch(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		for _, w := range [][2]float64{{0.5, 0.5}, {0.9, 0.1}} {
			rows, err := l.EndToEnd(batchIDs(3), experiments.KindGP, false, w, 1)
			if err != nil {
				b.Fatal(err)
			}
			experiments.WriteFig6(io.Discard, rows, false)
		}
	}
}

// BenchmarkFig6cdAccurateStream regenerates Fig. 6(c)/(d): streaming latency
// vs throughput comparison.
func BenchmarkFig6cdAccurateStream(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		for _, w := range [][2]float64{{0.5, 0.5}, {0.9, 0.1}} {
			rows, err := l.StreamEndToEnd(streamIDs(3), w, 1)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) != 3 {
				b.Fatal("bad rows")
			}
		}
	}
}

// BenchmarkFig6efInaccurate regenerates Fig. 6(e)/(f): DNN-vs-GP systems
// measured on the simulator.
func BenchmarkFig6efInaccurate(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		for _, w := range [][2]float64{{0.5, 0.5}, {0.9, 0.1}} {
			rows, err := l.EndToEnd(batchIDs(3), experiments.KindDNN, false, w, 1)
			if err != nil {
				b.Fatal(err)
			}
			experiments.WriteFig6(io.Discard, experiments.TopLongRunning(rows, 12), true)
			experiments.Summarize(rows)
		}
	}
}

// BenchmarkFig9Cost2 regenerates Fig. 9: the cost2 (CPU-hour + IO) variant.
func BenchmarkFig9Cost2(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		rows, err := l.EndToEnd(batchIDs(3), experiments.KindDNN, true, [2]float64{0.5, 0.5}, 1)
		if err != nil {
			b.Fatal(err)
		}
		experiments.WriteFig6(io.Discard, rows, true)
		experiments.WriteFig6(io.Discard, rows, false)
	}
}

// BenchmarkFig6ghPIR regenerates Fig. 6(g)/(h): model error vs performance
// improvement rate against the expert configuration.
func BenchmarkFig6ghPIR(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		var sets [][]experiments.E2ERow
		for _, w := range [][2]float64{{0.5, 0.5}, {0.9, 0.1}} {
			rows, err := l.EndToEnd(batchIDs(3), experiments.KindDNN, false, w, 1)
			if err != nil {
				b.Fatal(err)
			}
			sets = append(sets, rows)
		}
		p := experiments.AnalyzePIR(sets...)
		p.Print(io.Discard)
	}
}

// BenchmarkTableSpeedup regenerates the headline 2–50x speedup table.
func BenchmarkTableSpeedup(b *testing.B) {
	l := benchLab()
	setup, err := l.BatchSetup(9, experiments.KindGP, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		table, err := l.Speedups([]*experiments.Setup{setup},
			[]string{experiments.MethodWS, experiments.MethodNC, experiments.MethodEvo, experiments.MethodQEHVI}, 8, 1)
		if err != nil {
			b.Fatal(err)
		}
		table.Print(io.Discard)
	}
}

// BenchmarkTableSolverTime regenerates the §V solver comparison (MOGD vs the
// exact Knitro stand-in, per CO problem, on GP and DNN models).
func BenchmarkTableSolverTime(b *testing.B) {
	l := benchLab()
	for i := 0; i < b.N; i++ {
		for _, kind := range []experiments.ModelKind{experiments.KindGP, experiments.KindDNN} {
			setup, err := l.BatchSetup(9, kind, false)
			if err != nil {
				b.Fatal(err)
			}
			rows, err := l.SolverComparison(setup, kind, 1)
			if err != nil {
				b.Fatal(err)
			}
			experiments.WriteSolverRows(io.Discard, rows)
		}
	}
}

// BenchmarkAblationQueueOrder: largest-volume-first vs FIFO vs random.
func BenchmarkAblationQueueOrder(b *testing.B) {
	benchAblation(b, func(l *experiments.Lab, s *experiments.Setup) ([]experiments.AblationRow, error) {
		return l.AblationQueueOrder(s, 12, 1)
	})
}

// BenchmarkAblationMultiStart: MOGD multi-start count.
func BenchmarkAblationMultiStart(b *testing.B) {
	benchAblation(b, func(l *experiments.Lab, s *experiments.Setup) ([]experiments.AblationRow, error) {
		return l.AblationMultiStart(s, []int{1, 4, 8}, 1)
	})
}

// BenchmarkAblationGridDegree: PF-AP grid degree l.
func BenchmarkAblationGridDegree(b *testing.B) {
	benchAblation(b, func(l *experiments.Lab, s *experiments.Setup) ([]experiments.AblationRow, error) {
		return l.AblationGridDegree(s, []int{2, 3}, 12, 1)
	})
}

// BenchmarkAblationUncertaintyAlpha: conservative-objective multiplier α.
func BenchmarkAblationUncertaintyAlpha(b *testing.B) {
	benchAblation(b, func(l *experiments.Lab, s *experiments.Setup) ([]experiments.AblationRow, error) {
		return l.AblationUncertaintyAlpha(s, []float64{0, 1}, 1)
	})
}

func benchAblation(b *testing.B, f func(*experiments.Lab, *experiments.Setup) ([]experiments.AblationRow, error)) {
	b.Helper()
	l := benchLab()
	setup, err := l.BatchSetup(9, experiments.KindGP, false)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rows, err := f(l, setup)
		if err != nil {
			b.Fatal(err)
		}
		experiments.WriteAblation(io.Discard, "bench", "-", rows)
	}
}

// BenchmarkOptimizerEndToEnd measures the public-API hot path of Fig. 1(a):
// frontier + recommendation over trained models — the "within a few
// seconds" requirement of §I.
func BenchmarkOptimizerEndToEnd(b *testing.B) {
	l := benchLab()
	setup, err := l.BatchSetup(9, experiments.KindGP, false)
	if err != nil {
		b.Fatal(err)
	}
	objs := []Objective{
		{Name: "latency", Model: setup.Models[0]},
		{Name: "cores", Model: setup.Models[1]},
	}
	for i := 0; i < b.N; i++ {
		opt, err := NewOptimizer(setup.Space, objs, Options{Probes: 30, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		plan, err := opt.Optimize([]float64{0.9, 0.1})
		if err != nil {
			b.Fatal(err)
		}
		if plan.Objectives["latency"] <= 0 {
			b.Fatal("bad plan")
		}
	}
}
