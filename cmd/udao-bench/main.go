// Command udao-bench regenerates the tables and figures of the paper's
// evaluation (§VI) on the simulated substrate. Each figure/table has a named
// experiment; -expt all runs everything at the chosen scale.
//
// Examples:
//
//	udao-bench -expt fig4a                  # uncertain space vs time, job 9
//	udao-bench -expt fig4f -jobs 258        # full 258-workload aggregate
//	udao-bench -expt fig6ef -jobs 30        # Expt 4 vs OtterTune, measured
//	udao-bench -expt all -jobs 8            # a quick pass over everything
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench/stream"
	"repro/internal/bench/tpcxbb"
	"repro/internal/experiments"
)

var (
	exptFlag   = flag.String("expt", "all", "experiment: fig1c, fig4a, fig4b, fig4d, fig4e, fig4f, fig5, fig5ef, fig8, fig6ab, fig6cd, fig6ef, fig9, fig6gh, speedup, solver, ablation, knobs, strategies, all")
	jobsFlag   = flag.Int("jobs", 6, "number of workloads for aggregate experiments (up to 258 batch / 63 streaming)")
	pointsFlag = flag.Int("points", 15, "Pareto points requested per method")
	modelFlag  = flag.String("model", "gp", "learned model family: gp or dnn")
	samples    = flag.Int("samples", 60, "training samples per workload")
	seedFlag   = flag.Int64("seed", 1, "random seed")
)

func main() {
	flag.Parse()
	lab := experiments.NewLab(*seedFlag)
	lab.Samples = *samples
	kind := experiments.KindGP
	if *modelFlag == "dnn" {
		kind = experiments.KindDNN
	}
	r := &runner{lab: lab, kind: kind}

	all := map[string]func() error{
		"fig1c":      r.fig1c,
		"fig4a":      r.fig4a,
		"fig4b":      r.fig4b,
		"fig4d":      r.fig4d,
		"fig4e":      r.fig4e,
		"fig4f":      r.fig4f,
		"fig5":       r.fig5,
		"fig5ef":     r.fig5ef,
		"fig8":       r.fig8,
		"fig6ab":     r.fig6ab,
		"fig6cd":     r.fig6cd,
		"fig6ef":     r.fig6ef,
		"fig9":       r.fig9,
		"fig6gh":     r.fig6gh,
		"speedup":    r.speedup,
		"solver":     r.solver,
		"ablation":   r.ablation,
		"knobs":      r.knobs,
		"strategies": r.strategies,
	}
	order := []string{"fig1c", "fig4a", "fig4b", "fig4d", "fig4e", "fig4f", "fig5", "fig5ef", "fig8",
		"fig6ab", "fig6cd", "fig6ef", "fig9", "fig6gh", "speedup", "solver", "ablation", "knobs", "strategies"}

	run := func(name string) {
		fmt.Printf("==== %s ====\n", name)
		start := time.Now()
		if err := all[name](); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *exptFlag == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	if _, ok := all[*exptFlag]; !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exptFlag)
		os.Exit(2)
	}
	run(*exptFlag)
}

type runner struct {
	lab  *experiments.Lab
	kind experiments.ModelKind
}

func (r *runner) batchIDs(n int) []int {
	if n > tpcxbb.NumWorkloads {
		n = tpcxbb.NumWorkloads
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = (i * 7) % tpcxbb.NumWorkloads // spread across templates
	}
	return ids
}

func (r *runner) streamIDs(n int) []int {
	if n > stream.NumWorkloads {
		n = stream.NumWorkloads
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = (i * 5) % stream.NumWorkloads
	}
	return ids
}

// fig1c: the intro comparison — TPCx-BB Q2 latency under UDAO vs OtterTune
// at weights (0.5,0.5) and (0.9,0.1).
func (r *runner) fig1c() error {
	fmt.Println("Fig 1(c): TPCx-BB Q2 latency, UDAO vs Ottertune")
	for _, w := range [][2]float64{{0.5, 0.5}, {0.9, 0.1}} {
		rows, err := r.lab.EndToEnd([]int{1}, r.kind, false, w, *seedFlag) // workload 1 = template q02
		if err != nil {
			return err
		}
		row := rows[0]
		fmt.Printf("weights (%.1f,%.1f): Ottertune %.1fs, UDAO %.1fs (%.0f%% reduction)\n",
			w[0], w[1], row.OtterActual[0], row.UdaoActual[0],
			100*(row.OtterActual[0]-row.UdaoActual[0])/row.OtterActual[0])
	}
	return nil
}

func (r *runner) fig4a() error {
	fmt.Println("Fig 4(a): uncertain space vs time, batch job 9, 2D — PF-AP/PF-AS/WS/NC")
	setup, err := r.lab.BatchSetup(9, r.kind, false)
	if err != nil {
		return err
	}
	results, err := r.lab.CompareMethods(setup,
		[]string{experiments.MethodPFAP, experiments.MethodPFAS, experiments.MethodWS, experiments.MethodNC},
		*pointsFlag, *seedFlag)
	if err != nil {
		return err
	}
	experiments.WriteTimeToFirst(os.Stdout, results)
	fmt.Println()
	experiments.WriteQualityTable(os.Stdout, setup, results)
	fmt.Println()
	experiments.WriteUncertainSeries(os.Stdout, results)
	return nil
}

func (r *runner) fig4b() error {
	fmt.Println("Fig 4(b)/(c): frontiers of WS, NC and PF-AP, batch job 9")
	setup, err := r.lab.BatchSetup(9, r.kind, false)
	if err != nil {
		return err
	}
	results, err := r.lab.CompareMethods(setup,
		[]string{experiments.MethodWS, experiments.MethodNC, experiments.MethodPFAP}, *pointsFlag, *seedFlag)
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Printf("%s frontier (%d points):\n", res.Method, len(res.Frontier))
		for _, row := range experiments.FrontierRows(res.Frontier) {
			fmt.Println("  " + row)
		}
	}
	return nil
}

func (r *runner) fig4d() error {
	fmt.Println("Fig 4(d): uncertain space vs time, batch job 9 — PF-AP/Evo/qEHVI/PESM")
	setup, err := r.lab.BatchSetup(9, r.kind, false)
	if err != nil {
		return err
	}
	results, err := r.lab.CompareMethods(setup,
		[]string{experiments.MethodPFAP, experiments.MethodEvo, experiments.MethodQEHVI, experiments.MethodPESM},
		*pointsFlag, *seedFlag)
	if err != nil {
		return err
	}
	experiments.WriteTimeToFirst(os.Stdout, results)
	return nil
}

func (r *runner) fig4e() error {
	fmt.Println("Fig 4(e): Evo frontier inconsistency across probe budgets (batch job 9)")
	setup, err := r.lab.BatchSetup(9, r.kind, false)
	if err != nil {
		return err
	}
	inc, err := r.lab.RunEvoInconsistency(setup, []int{30, 40, 50}, *seedFlag)
	if err != nil {
		return err
	}
	for i, p := range inc.Probes {
		fmt.Printf("probes=%d: %d frontier points, inconsistency vs previous = %.3f\n",
			p, len(inc.Frontiers[i]), inc.Inconsistency[i])
	}
	return nil
}

func (r *runner) fig4f() error {
	fmt.Printf("Fig 4(f): median uncertain space across %d batch jobs\n", *jobsFlag)
	setups, err := r.batchSetups()
	if err != nil {
		return err
	}
	thresholds := []time.Duration{100 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2 * time.Second, 5 * time.Second, 20 * time.Second}
	sum, err := r.lab.AcrossJobs(setups,
		[]string{experiments.MethodPFAP, experiments.MethodEvo, experiments.MethodQEHVI, experiments.MethodNC},
		*pointsFlag, thresholds, *seedFlag)
	if err != nil {
		return err
	}
	sum.Print(os.Stdout)
	return nil
}

func (r *runner) batchSetups() ([]*experiments.Setup, error) {
	var setups []*experiments.Setup
	for _, id := range r.batchIDs(*jobsFlag) {
		s, err := r.lab.BatchSetup(id, r.kind, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	return setups, nil
}

func (r *runner) fig5() error {
	fmt.Println("Fig 5(a)-(d): streaming job 54 — frontiers (3D) and uncertain space (2D)")
	setup3, err := r.lab.StreamSetup(54, r.kind, true)
	if err != nil {
		return err
	}
	results, err := r.lab.CompareMethods(setup3,
		[]string{experiments.MethodWS, experiments.MethodNC, experiments.MethodPFAP}, *pointsFlag, *seedFlag)
	if err != nil {
		return err
	}
	for _, res := range results {
		fmt.Printf("%s 3D frontier (%d points, lat/-thr/cores):\n", res.Method, len(res.Frontier))
		for _, row := range experiments.FrontierRows(res.Frontier) {
			fmt.Println("  " + row)
		}
	}
	setup2, err := r.lab.StreamSetup(54, r.kind, false)
	if err != nil {
		return err
	}
	res2, err := r.lab.CompareMethods(setup2, experiments.AllMethods, *pointsFlag, *seedFlag)
	if err != nil {
		return err
	}
	fmt.Println("\n2D uncertain-space summary:")
	experiments.WriteTimeToFirst(os.Stdout, res2)
	return nil
}

func (r *runner) fig5ef() error {
	fmt.Printf("Fig 5(e)/(f): median uncertain space across %d streaming jobs, 2D and 3D\n", *jobsFlag)
	thresholds := []time.Duration{100 * time.Millisecond, 500 * time.Millisecond,
		time.Second, 2 * time.Second, 5 * time.Second, 20 * time.Second}
	for _, threeD := range []bool{false, true} {
		var setups []*experiments.Setup
		for _, id := range r.streamIDs(*jobsFlag) {
			s, err := r.lab.StreamSetup(id, r.kind, threeD)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		sum, err := r.lab.AcrossJobs(setups,
			[]string{experiments.MethodPFAP, experiments.MethodEvo, experiments.MethodQEHVI, experiments.MethodNC},
			*pointsFlag, thresholds, *seedFlag)
		if err != nil {
			return err
		}
		dim := "2D"
		if threeD {
			dim = "3D"
		}
		fmt.Printf("--- %s ---\n", dim)
		sum.Print(os.Stdout)
	}
	return nil
}

func (r *runner) fig8() error {
	fmt.Println("Fig 8: streaming job 56 detail — methods, frontiers, Evo inconsistency")
	setup, err := r.lab.StreamSetup(56, r.kind, false)
	if err != nil {
		return err
	}
	results, err := r.lab.CompareMethods(setup,
		[]string{experiments.MethodPFAP, experiments.MethodPFAS, experiments.MethodEvo, experiments.MethodWS, experiments.MethodNC},
		*pointsFlag, *seedFlag)
	if err != nil {
		return err
	}
	experiments.WriteTimeToFirst(os.Stdout, results)
	inc, err := r.lab.RunEvoInconsistency(setup, []int{30, 40, 50}, *seedFlag)
	if err != nil {
		return err
	}
	fmt.Println("Evo inconsistency (30/40/50 probes):")
	for i, p := range inc.Probes {
		fmt.Printf("  probes=%d: %d points, inconsistency=%.3f\n", p, len(inc.Frontiers[i]), inc.Inconsistency[i])
	}
	return nil
}

func (r *runner) fig6ab() error {
	fmt.Printf("Fig 6(a)/(b): accurate models, batch, %d test jobs\n", *jobsFlag)
	for _, w := range [][2]float64{{0.5, 0.5}, {0.9, 0.1}} {
		rows, err := r.lab.EndToEnd(r.batchIDs(*jobsFlag), experiments.KindGP, false, w, *seedFlag)
		if err != nil {
			return err
		}
		fmt.Printf("--- weights (%.1f,%.1f), model-predicted values ---\n", w[0], w[1])
		experiments.WriteFig6(os.Stdout, rows, false)
	}
	return nil
}

func (r *runner) fig6cd() error {
	fmt.Printf("Fig 6(c)/(d): accurate models, streaming, %d test jobs\n", *jobsFlag)
	for _, w := range [][2]float64{{0.5, 0.5}, {0.9, 0.1}} {
		rows, err := r.lab.StreamEndToEnd(r.streamIDs(*jobsFlag), w, *seedFlag)
		if err != nil {
			return err
		}
		fmt.Printf("--- weights (%.1f,%.1f) ---\n", w[0], w[1])
		fmt.Printf("%-18s %10s %10s %12s %12s\n", "workload", "udao-lat", "otter-lat", "udao-thr", "otter-thr")
		for _, row := range rows {
			fmt.Printf("%-18s %10.2f %10.2f %12.0f %12.0f\n",
				row.Workload, row.UdaoLat, row.OtterLat, row.UdaoThr, row.OtterThr)
		}
	}
	return nil
}

func (r *runner) fig6ef() error {
	fmt.Printf("Fig 6(e)/(f): inaccurate models (UDAO=%s, Ottertune=GP), measured latency, %d jobs\n", r.kind, *jobsFlag)
	for _, w := range [][2]float64{{0.5, 0.5}, {0.9, 0.1}} {
		rows, err := r.lab.EndToEnd(r.batchIDs(*jobsFlag), experiments.KindDNN, false, w, *seedFlag)
		if err != nil {
			return err
		}
		top := experiments.TopLongRunning(rows, 12)
		fmt.Printf("--- weights (%.1f,%.1f), top %d long-running, measured ---\n", w[0], w[1], len(top))
		experiments.WriteFig6(os.Stdout, top, true)
		s := experiments.Summarize(rows)
		fmt.Printf("TOTAL: UDAO %.0fs vs Ottertune %.0fs -> %.0f%% reduction; UDAO dominates on %d/%d jobs\n",
			s.UdaoTotalLat, s.OtterTotalLat, s.ReductionPct, s.Dominated, len(rows))
	}
	return nil
}

func (r *runner) fig9() error {
	fmt.Printf("Fig 9: latency and cost2 (CPU-hour + IO), measured and predicted, %d jobs\n", *jobsFlag)
	for _, w := range [][2]float64{{0.5, 0.5}, {0.9, 0.1}} {
		rows, err := r.lab.EndToEnd(r.batchIDs(*jobsFlag), experiments.KindDNN, true, w, *seedFlag)
		if err != nil {
			return err
		}
		top := experiments.TopLongRunning(rows, 12)
		fmt.Printf("--- weights (%.1f,%.1f), measured (cost = cost2) ---\n", w[0], w[1])
		experiments.WriteFig6(os.Stdout, top, true)
		fmt.Printf("--- weights (%.1f,%.1f), predicted ---\n", w[0], w[1])
		experiments.WriteFig6(os.Stdout, top, false)
	}
	return nil
}

func (r *runner) fig6gh() error {
	fmt.Printf("Fig 6(g)/(h): model error vs performance improvement rate, %d jobs × 2 weights × 2 costs\n", *jobsFlag)
	ids := r.batchIDs(*jobsFlag)
	var sets [][]experiments.E2ERow
	for _, w := range [][2]float64{{0.5, 0.5}, {0.9, 0.1}} {
		for _, cost2 := range []bool{false, true} {
			rows, err := r.lab.EndToEnd(ids, experiments.KindDNN, cost2, w, *seedFlag)
			if err != nil {
				return err
			}
			sets = append(sets, rows)
		}
	}
	p := experiments.AnalyzePIR(sets...)
	p.Print(os.Stdout)
	fmt.Println("scatter (system, APE%, PIR%):")
	for _, pt := range p.Points {
		fmt.Printf("  %-10s %8.1f %8.1f\n", pt.System, 100*pt.APE, 100*pt.PIR)
	}
	return nil
}

func (r *runner) speedup() error {
	fmt.Printf("Speedup table: time-to-first-Pareto-set vs PF-AP, %d jobs\n", *jobsFlag)
	setups, err := r.batchSetups()
	if err != nil {
		return err
	}
	table, err := r.lab.Speedups(setups,
		[]string{experiments.MethodWS, experiments.MethodNC, experiments.MethodEvo, experiments.MethodQEHVI, experiments.MethodPESM},
		*pointsFlag, *seedFlag)
	if err != nil {
		return err
	}
	table.Print(os.Stdout)
	return nil
}

func (r *runner) solver() error {
	fmt.Println("Solver table (§V): MOGD vs the exact (Knitro stand-in) solver per CO problem")
	for _, kind := range []experiments.ModelKind{experiments.KindGP, experiments.KindDNN} {
		setup, err := r.lab.BatchSetup(9, kind, false)
		if err != nil {
			return err
		}
		rows, err := r.lab.SolverComparison(setup, kind, *seedFlag)
		if err != nil {
			return err
		}
		experiments.WriteSolverRows(os.Stdout, rows)
	}
	return nil
}

func (r *runner) ablation() error {
	setup, err := r.lab.BatchSetup(9, r.kind, false)
	if err != nil {
		return err
	}
	rows, err := r.lab.AblationQueueOrder(setup, 20, *seedFlag)
	if err != nil {
		return err
	}
	experiments.WriteAblation(os.Stdout, "probe queue order (20 probes)", "-", rows)

	rows, err = r.lab.AblationMultiStart(setup, []int{1, 2, 4, 8, 16}, *seedFlag)
	if err != nil {
		return err
	}
	experiments.WriteAblation(os.Stdout, "MOGD multi-start count", "objective", rows)

	rows, err = r.lab.AblationGridDegree(setup, []int{2, 3, 4}, 30, *seedFlag)
	if err != nil {
		return err
	}
	experiments.WriteAblation(os.Stdout, "PF-AP grid degree l", "probes", rows)

	rows, err = r.lab.AblationUncertaintyAlpha(setup, []float64{0, 0.5, 1, 2}, *seedFlag)
	if err != nil {
		return err
	}
	experiments.WriteAblation(os.Stdout, "uncertainty multiplier alpha", "actual-lat", rows)
	return nil
}

// knobs reproduces the Appendix C-A knob-selection step: LASSO-path knob
// importance over the workload's traces.
func (r *runner) knobs() error {
	fmt.Println("Knob selection (Appendix C-A): LASSO-path importance, batch job 9")
	setup, err := r.lab.BatchSetup(9, r.kind, false)
	if err != nil {
		return err
	}
	ranks, err := r.lab.KnobImportance(setup, 12)
	if err != nil {
		return err
	}
	experiments.WriteKnobRanks(os.Stdout, ranks)
	return nil
}

// strategies compares the selection strategies of §V and Appendix B on one
// frontier.
func (r *runner) strategies() error {
	fmt.Println("Recommendation strategies (Appendix B), batch job 9")
	setup, err := r.lab.BatchSetup(9, r.kind, false)
	if err != nil {
		return err
	}
	rows, err := r.lab.CompareStrategies(setup, *seedFlag)
	if err != nil {
		return err
	}
	experiments.WriteStrategyRows(os.Stdout, setup.Names, rows)
	return nil
}
