package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/moo"
	"repro/internal/moo/evo"
	"repro/internal/moo/mobo"
	"repro/internal/moo/nc"
	"repro/internal/moo/ws"
	"repro/internal/objective"
)

// Method names accepted by CompareMethods.
const (
	MethodPFAP  = "PF-AP"
	MethodPFAS  = "PF-AS"
	MethodWS    = "WS"
	MethodNC    = "NC"
	MethodEvo   = "Evo"
	MethodQEHVI = "qEHVI"
	MethodPESM  = "PESM"
)

// AllMethods lists every comparable method in presentation order.
var AllMethods = []string{MethodPFAP, MethodPFAS, MethodWS, MethodNC, MethodEvo, MethodQEHVI, MethodPESM}

// baseline constructs a moo baseline by name on a fresh evaluator over the
// setup's models.
func (l *Lab) baseline(setup *Setup, name string) moo.Method {
	switch name {
	case MethodWS:
		return &ws.Method{Evaluator: setup.evaluator(0)}
	case MethodNC:
		return &nc.Method{Evaluator: setup.evaluator(0)}
	case MethodEvo:
		return &evo.Method{Evaluator: setup.evaluator(0)}
	case MethodQEHVI:
		return &mobo.Method{Evaluator: setup.evaluator(0), Acq: mobo.QEHVI}
	case MethodPESM:
		return &mobo.Method{Evaluator: setup.evaluator(0), Acq: mobo.PESM}
	}
	return nil
}

// CompareMethods runs the named methods on one workload with the same point
// budget — the engine behind Fig. 4(a)/4(d)/5(d) and Fig. 8(a).
func (l *Lab) CompareMethods(setup *Setup, names []string, points int, seed int64) ([]MethodResult, error) {
	out := make([]MethodResult, 0, len(names))
	for _, n := range names {
		var res MethodResult
		var err error
		switch n {
		case MethodPFAP:
			res, err = l.RunPF(setup, true, points, seed)
		case MethodPFAS:
			res, err = l.RunPF(setup, false, points, seed)
		case MethodQEHVI:
			// qEHVI adds one point per iteration (§VI-A): genuinely
			// incremental.
			res, err = l.RunBaseline(setup, l.baseline(setup, n), points, seed)
		case MethodWS, MethodNC, MethodEvo, MethodPESM:
			// Restart-based methods are rerun per budget rung with
			// cumulative time (the paper's probe ladder).
			name := n
			res, err = l.RunLadder(setup, func() moo.Method { return l.baseline(setup, name) }, points, seed)
		default:
			return nil, fmt.Errorf("experiments: unknown method %q", n)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", n, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// WriteUncertainSeries prints each method's uncertain-space trajectory —
// the data series of Fig. 4(a)/4(d)/5(d)/8(a).
func WriteUncertainSeries(w io.Writer, results []MethodResult) {
	fmt.Fprintf(w, "%-8s %12s %12s %8s\n", "method", "elapsed(ms)", "uncertain%", "points")
	for _, r := range results {
		for _, p := range r.Series {
			fmt.Fprintf(w, "%-8s %12.1f %12.1f %8d\n",
				r.Method, float64(p.Elapsed.Microseconds())/1000, 100*p.Uncertain, p.Points)
		}
	}
}

// WriteTimeToFirst prints the time each method needed to produce its first
// Pareto set and its final uncertain space.
func WriteTimeToFirst(w io.Writer, results []MethodResult) {
	fmt.Fprintf(w, "%-8s %16s %14s %8s\n", "method", "first-set(ms)", "final-unc(%)", "points")
	for _, r := range results {
		final := 1.0
		if n := len(r.Series); n > 0 {
			final = r.Series[n-1].Uncertain
		}
		fmt.Fprintf(w, "%-8s %16.1f %14.1f %8d\n",
			r.Method, float64(r.TimeToFirst.Microseconds())/1000, 100*final, len(r.Frontier))
	}
}

// WriteQualityTable prints each method's final frontier quality in the
// setup's [Utopia, Nadir] box: the dominated-hypervolume fraction (higher is
// better), the frontier coverage and the final uncertain space — the §VI
// quality comparison behind the Fig. 4/5 frontier plots. Degenerate boxes
// render as "?" (the metrics package's NaN sentinel).
func WriteQualityTable(w io.Writer, setup *Setup, results []MethodResult) {
	fmt.Fprintf(w, "%-8s %14s %10s %14s %8s\n", "method", "hypervolume", "coverage", "uncertain(%)", "points")
	for _, r := range results {
		hv := metrics.Hypervolume(r.Frontier, setup.Utopia, setup.Nadir)
		cov := metrics.Coverage(r.Frontier, setup.Utopia, setup.Nadir)
		final := 1.0
		if n := len(r.Series); n > 0 {
			final = r.Series[n-1].Uncertain
		}
		fmt.Fprintf(w, "%-8s %14s %10d %14.1f %8d\n",
			r.Method, fmtMetric(hv), cov, 100*final, len(r.Frontier))
	}
}

// fmtMetric renders a quality value, mapping the NaN degenerate-box sentinel
// to "?".
func fmtMetric(v float64) string {
	if v != v { // NaN
		return "?"
	}
	return fmt.Sprintf("%.4f", v)
}

// FrontierRows formats a frontier as "F1 F2 [F3]" rows — Fig. 4(b)/4(c),
// 5(a)–(c), 8(b)–(d).
func FrontierRows(front []objective.Point) []string {
	sorted := append([]objective.Point(nil), front...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	rows := make([]string, len(sorted))
	for i, p := range sorted {
		row := ""
		for j, v := range p {
			if j > 0 {
				row += "  "
			}
			row += fmt.Sprintf("%10.2f", v)
		}
		rows[i] = row
	}
	return rows
}

// EvoInconsistency runs Evo at increasing probe budgets (the paper's
// 30/40/50 of Fig. 4(e)) and reports the consistency violation of each
// frontier against the previous one (0 = consistent; PF is 0 by
// construction).
type EvoInconsistency struct {
	Probes        []int
	Frontiers     [][]objective.Point
	Inconsistency []float64 // [i] compares frontier i against i-1 (first = 0)
}

// RunEvoInconsistency reproduces Fig. 4(e)/8(d)-(e).
func (l *Lab) RunEvoInconsistency(setup *Setup, probes []int, seed int64) (EvoInconsistency, error) {
	out := EvoInconsistency{Probes: probes}
	for i, p := range probes {
		m := l.baseline(setup, MethodEvo)
		front, err := m.Run(moo.Options{Points: p, Seed: seed + int64(i)*31})
		if err != nil {
			return out, err
		}
		out.Frontiers = append(out.Frontiers, solutionsToPoints(front))
		if i == 0 {
			out.Inconsistency = append(out.Inconsistency, 0)
		} else {
			c := metrics.Consistency(out.Frontiers[i-1], out.Frontiers[i], setup.Utopia, setup.Nadir)
			out.Inconsistency = append(out.Inconsistency, c)
		}
	}
	return out, nil
}

// ThresholdSummary is the Fig. 4(f)/5(e)/5(f) aggregation: for each method
// and elapsed-time threshold, the median uncertain-space fraction across
// jobs.
type ThresholdSummary struct {
	Methods    []string
	Thresholds []time.Duration
	// Median[i][j] is the median uncertain fraction of Methods[i] at
	// Thresholds[j] across all jobs.
	Median [][]float64
	Jobs   int
}

// AcrossJobs runs the named methods over the given setups and aggregates
// median uncertain space at the thresholds.
func (l *Lab) AcrossJobs(setups []*Setup, names []string, points int, thresholds []time.Duration, seed int64) (ThresholdSummary, error) {
	sum := ThresholdSummary{Methods: names, Thresholds: thresholds, Jobs: len(setups)}
	// perMethod[i][j] collects per-job uncertain fractions.
	per := make([][][]float64, len(names))
	for i := range per {
		per[i] = make([][]float64, len(thresholds))
	}
	for jobIdx, setup := range setups {
		results, err := l.CompareMethods(setup, names, points, seed+int64(jobIdx)*101)
		if err != nil {
			return sum, err
		}
		for i, r := range results {
			for j, th := range thresholds {
				per[i][j] = append(per[i][j], r.UncertainAt(th))
			}
		}
	}
	sum.Median = make([][]float64, len(names))
	for i := range names {
		sum.Median[i] = make([]float64, len(thresholds))
		for j := range thresholds {
			sum.Median[i][j] = median(per[i][j])
		}
	}
	return sum, nil
}

// Print writes the summary as a method × threshold table.
func (t ThresholdSummary) Print(w io.Writer) {
	fmt.Fprintf(w, "median uncertain space (%%) across %d jobs\n", t.Jobs)
	fmt.Fprintf(w, "%-8s", "method")
	for _, th := range t.Thresholds {
		fmt.Fprintf(w, " %9s", th)
	}
	fmt.Fprintln(w)
	for i, m := range t.Methods {
		fmt.Fprintf(w, "%-8s", m)
		for j := range t.Thresholds {
			fmt.Fprintf(w, " %9.1f", 100*t.Median[i][j])
		}
		fmt.Fprintln(w)
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 1
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
