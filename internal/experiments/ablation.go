package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/solver"
	"repro/internal/solver/mogd"
)

// AblationRow is one variant's outcome in a design-choice ablation
// (DESIGN.md §4).
type AblationRow struct {
	Variant   string
	Uncertain float64       // uncertain fraction at the probe budget
	Points    int           // frontier size
	Elapsed   time.Duration // wall-clock
	Extra     float64       // study-specific metric (documented per study)
}

// WriteAblation prints ablation rows.
func WriteAblation(w io.Writer, title, extraName string, rows []AblationRow) {
	fmt.Fprintf(w, "ablation: %s\n", title)
	fmt.Fprintf(w, "%-16s %12s %8s %12s %12s\n", "variant", "uncertain%", "points", "elapsed(ms)", extraName)
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %12.1f %8d %12.1f %12.3f\n",
			r.Variant, 100*r.Uncertain, r.Points, float64(r.Elapsed.Microseconds())/1000, r.Extra)
	}
}

// AblationQueueOrder compares the uncertainty-aware largest-volume-first
// probing policy against FIFO and random orders at a fixed probe budget —
// the paper's claim that volume ordering "reduces the uncertain space as
// fast as we can" (§IV-A).
func (l *Lab) AblationQueueOrder(setup *Setup, probes int, seed int64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, v := range []struct {
		name  string
		order core.ProbeOrder
	}{{"volume(paper)", core.OrderVolume}, {"fifo", core.OrderFIFO}, {"random", core.OrderRandom}} {
		start := time.Now()
		front, err := setup.pf(false, probes, 0, core.Options{Seed: seed, Order: v.order})
		if err != nil {
			return nil, err
		}
		u := metrics.UncertainFraction(solutionsToPoints(front), setup.Utopia, setup.Nadir)
		rows = append(rows, AblationRow{Variant: v.name, Uncertain: u, Points: len(front), Elapsed: time.Since(start)})
	}
	return rows, nil
}

// AblationMultiStart varies MOGD's multi-start count on a representative CO
// problem; Extra is the achieved target objective (lower = better local
// minimum).
func (l *Lab) AblationMultiStart(setup *Setup, starts []int, seed int64) ([]AblationRow, error) {
	k := len(setup.Models)
	lo := make([]float64, k)
	hi := make([]float64, k)
	for j := 0; j < k; j++ {
		lo[j] = setup.Utopia[j]
		hi[j] = (setup.Utopia[j] + setup.Nadir[j]) / 2
	}
	co := solver.CO{Target: 0, Lo: lo, Hi: hi}
	var rows []AblationRow
	for _, st := range starts {
		s, err := mogd.New(setup.evaluator(0), mogd.Config{Starts: st, Iters: 80, Seed: seed})
		if err != nil {
			return nil, err
		}
		begin := time.Now()
		sol, ok := s.Solve(co, seed)
		val := math.NaN()
		if ok {
			val = sol.F[0]
		}
		rows = append(rows, AblationRow{Variant: fmt.Sprintf("starts=%d", st), Elapsed: time.Since(begin), Extra: val, Points: boolToInt(ok)})
	}
	return rows, nil
}

// AblationGridDegree varies PF-AP's grid degree l; Extra is the probes
// actually issued.
func (l *Lab) AblationGridDegree(setup *Setup, degrees []int, probes int, seed int64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, g := range degrees {
		issued := 0
		start := time.Now()
		front, err := setup.pf(true, probes, 0, core.Options{Grid: g, Seed: seed,
			OnProgress: func(sn core.Snapshot) { issued = sn.Probes }})
		if err != nil {
			return nil, err
		}
		u := metrics.UncertainFraction(solutionsToPoints(front), setup.Utopia, setup.Nadir)
		rows = append(rows, AblationRow{Variant: fmt.Sprintf("l=%d", g), Uncertain: u, Points: len(front), Elapsed: time.Since(start), Extra: float64(issued)})
	}
	return rows, nil
}

// AblationUncertaintyAlpha varies the conservative-objective multiplier α
// under inaccurate models; Extra is the measured (actual) latency of the
// recommendation, which α is supposed to protect (§IV-B.3).
func (l *Lab) AblationUncertaintyAlpha(setup *Setup, alphas []float64, seed int64) ([]AblationRow, error) {
	var rows []AblationRow
	for _, a := range alphas {
		start := time.Now()
		front, err := setup.pf(true, 20, a, core.Options{Seed: seed})
		if err != nil {
			return nil, err
		}
		actual := math.NaN()
		if len(front) > 0 {
			// Measure the latency-favoring end of the frontier.
			best := front[0]
			for _, f := range front[1:] {
				if f.F[0] < best.F[0] {
					best = f
				}
			}
			conf, err := setup.Space.Decode(best.X)
			if err == nil {
				if p, err := setup.Measure(conf); err == nil {
					actual = p[0]
				}
			}
		}
		u := metrics.UncertainFraction(solutionsToPoints(front), setup.Utopia, setup.Nadir)
		rows = append(rows, AblationRow{Variant: fmt.Sprintf("alpha=%.1f", a), Uncertain: u, Points: len(front), Elapsed: time.Since(start), Extra: actual})
	}
	return rows, nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
