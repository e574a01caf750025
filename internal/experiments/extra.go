package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/feature"
	"repro/internal/objective"
	"repro/internal/recommend"
)

// KnobRank is one knob's importance ranking (Appendix C-A).
type KnobRank struct {
	Knob string
	Rank int // 1 = most important
}

// KnobImportance reproduces the paper's knob-selection step (Appendix C-A):
// a LASSO path over the workload's traces ranks the knobs by the order they
// enter the regularization path, mixed with the Spark-recommendation
// preference list (§V feature engineering). It returns the knobs in
// selection order.
func (l *Lab) KnobImportance(setup *Setup, k int) ([]KnobRank, error) {
	entries := setup.Entries
	if len(entries) == 0 {
		return nil, fmt.Errorf("experiments: no traces for %s", setup.Workload)
	}
	// Feature matrix: one column per raw knob (first encoded dim of each
	// variable — the spaces here have no categorical knobs).
	spc := setup.Space
	X := make([][]float64, len(entries))
	y := make([]float64, len(entries))
	for i, e := range entries {
		row := make([]float64, spc.NumVars())
		for j := range spc.Vars {
			row[j] = float64(e.Conf[j])
		}
		X[i] = row
		y[i] = e.Objectives[ObjLatency]
	}
	// Domain-knowledge preferences: the resource knobs Spark guides always
	// call out first.
	var preferred []int
	for _, name := range []string{"spark.executor.instances", "spark.executor.cores", "spark.executor.memory"} {
		if idx := spc.Lookup(name); idx >= 0 {
			preferred = append(preferred, idx)
		}
	}
	if keep := feature.FilterConstant(X); len(keep) == 0 {
		return nil, fmt.Errorf("experiments: all knob columns constant")
	}
	order := feature.SelectKnobs(X, y, preferred, k)
	out := make([]KnobRank, 0, len(order))
	for rank, j := range order {
		out = append(out, KnobRank{Knob: spc.Vars[j].Name, Rank: rank + 1})
	}
	return out, nil
}

// WriteKnobRanks prints the knob-importance table.
func WriteKnobRanks(w io.Writer, ranks []KnobRank) {
	fmt.Fprintf(w, "%-4s %s\n", "rank", "knob")
	for _, r := range ranks {
		fmt.Fprintf(w, "%-4d %s\n", r.Rank, r.Knob)
	}
}

// StrategyRow is one recommendation strategy's pick from a shared frontier
// (Appendix B).
type StrategyRow struct {
	Strategy string
	F        objective.Point
}

// CompareStrategies computes one Pareto frontier and reports what every
// selection strategy of §V/Appendix B recommends from it, under balanced
// external weights.
func (l *Lab) CompareStrategies(setup *Setup, seed int64) ([]StrategyRow, error) {
	front, err := setup.pf(true, 40, 0, core.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	balanced := make([]float64, len(setup.Models))
	for i := range balanced {
		balanced[i] = 1
	}
	type pick struct {
		name string
		f    func() (objective.Solution, error)
	}
	picks := []pick{
		{"UN", func() (objective.Solution, error) { return recommend.UtopiaNearest(front) }},
		{"WUN(0.9,0.1)", func() (objective.Solution, error) {
			w := append([]float64(nil), balanced...)
			w[0] = 0.9
			if len(w) > 1 {
				w[1] = 0.1
			}
			return recommend.WeightedUtopiaNearest(front, w)
		}},
		{"WA-WUN(long)", func() (objective.Solution, error) {
			return recommend.WorkloadAwareWUN(front, balanced, recommend.LongRunning)
		}},
	}
	if len(setup.Models) == 2 {
		picks = append(picks,
			pick{"SLL", func() (objective.Solution, error) { return recommend.SlopeMaximization(front, recommend.Left) }},
			pick{"SLR", func() (objective.Solution, error) { return recommend.SlopeMaximization(front, recommend.Right) }},
			pick{"KPL", func() (objective.Solution, error) { return recommend.KneePoint(front, recommend.Left) }},
			pick{"KPR", func() (objective.Solution, error) { return recommend.KneePoint(front, recommend.Right) }},
		)
	}
	var rows []StrategyRow
	for _, p := range picks {
		sol, err := p.f()
		if err != nil {
			return nil, fmt.Errorf("experiments: strategy %s: %w", p.name, err)
		}
		rows = append(rows, StrategyRow{Strategy: p.name, F: sol.F})
	}
	return rows, nil
}

// WriteStrategyRows prints the strategy comparison.
func WriteStrategyRows(w io.Writer, names []string, rows []StrategyRow) {
	fmt.Fprintf(w, "%-14s", "strategy")
	for _, n := range names {
		fmt.Fprintf(w, " %12s", n)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s", r.Strategy)
		for _, v := range r.F {
			fmt.Fprintf(w, " %12.2f", v)
		}
		fmt.Fprintln(w)
	}
}
