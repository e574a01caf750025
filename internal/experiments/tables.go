package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/solver"
	"repro/internal/solver/exact"
	"repro/internal/solver/mogd"
)

// SpeedupTable is the headline "2–50× speedup over existing MOO methods"
// result (§I, §VI): for each baseline, the ratio of its time-to-first-Pareto
// set (and time to reach 10% uncertain space) over PF-AP's, aggregated
// across jobs.
type SpeedupTable struct {
	Methods []string
	// MinRatio/MedianRatio/MaxRatio of time-to-first-frontier vs PF-AP.
	MinRatio, MedianRatio, MaxRatio []float64
	Jobs                            int
}

// Speedups runs PF-AP and the baselines across the setups and derives the
// speedup distribution.
func (l *Lab) Speedups(setups []*Setup, baselines []string, points int, seed int64) (SpeedupTable, error) {
	out := SpeedupTable{Methods: baselines, Jobs: len(setups)}
	ratios := make([][]float64, len(baselines))
	for jobIdx, setup := range setups {
		pf, err := l.RunPF(setup, true, points, seed+int64(jobIdx))
		if err != nil {
			return out, err
		}
		pfTime := math.Max(float64(pf.TimeToFirst), 1)
		for i, name := range baselines {
			res, err := l.CompareMethods(setup, []string{name}, points, seed+int64(jobIdx))
			if err != nil {
				return out, err
			}
			t := float64(res[0].TimeToFirst)
			if t == 0 { // never produced a frontier: use total runtime
				t = float64(res[0].Total)
			}
			ratios[i] = append(ratios[i], t/pfTime)
		}
	}
	for _, r := range ratios {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range r {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		out.MinRatio = append(out.MinRatio, lo)
		out.MedianRatio = append(out.MedianRatio, median(r))
		out.MaxRatio = append(out.MaxRatio, hi)
	}
	return out, nil
}

// Print writes the speedup table.
func (t SpeedupTable) Print(w io.Writer) {
	fmt.Fprintf(w, "time-to-first-Pareto-set vs PF-AP across %d jobs\n", t.Jobs)
	fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "method", "min x", "median x", "max x")
	for i, m := range t.Methods {
		fmt.Fprintf(w, "%-8s %10.1f %10.1f %10.1f\n", m, t.MinRatio[i], t.MedianRatio[i], t.MaxRatio[i])
	}
}

// SolverRow is one line of the §V solver comparison: per-CO-problem time and
// achieved objective for MOGD vs the near-exact reference solver (the role
// Knitro plays in the paper: 17–42 minutes per problem vs MOGD's 0.1–0.5 s).
type SolverRow struct {
	ModelKind string
	Solver    string
	TimePerCO time.Duration
	Objective float64 // achieved target value (lower is better)
	Feasible  bool
}

// SolverComparison solves one representative middle-point CO problem on the
// setup's models with both solvers.
func (l *Lab) SolverComparison(setup *Setup, kind ModelKind, seed int64) ([]SolverRow, error) {
	// Build the CO problem: minimize objective 0 within the lower half-box
	// of the model box (a typical Middle Point Probe).
	k := len(setup.Models)
	lo := make([]float64, k)
	hi := make([]float64, k)
	for j := 0; j < k; j++ {
		lo[j] = setup.Utopia[j]
		hi[j] = (setup.Utopia[j] + setup.Nadir[j]) / 2
	}
	co := solver.CO{Target: 0, Lo: lo, Hi: hi}

	var rows []SolverRow
	mg, err := mogd.New(setup.evaluator(0), mogd.Config{Seed: seed})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	sol, ok := mg.Solve(co, seed)
	rows = append(rows, SolverRow{ModelKind: kind.String(), Solver: "MOGD", TimePerCO: time.Since(start), Objective: objOrNaN(sol.F, ok), Feasible: ok})

	// The exact reference gets a deep search budget befitting its Knitro
	// role: thorough enough to approach the global optimum, orders of
	// magnitude slower than MOGD.
	ex := exact.New(setup.evaluator(0), exact.Config{Samples: 262144, Refine: 6, Steps: 48})
	start = time.Now()
	sol, ok = ex.Solve(co, seed)
	rows = append(rows, SolverRow{ModelKind: kind.String(), Solver: "Exact", TimePerCO: time.Since(start), Objective: objOrNaN(sol.F, ok), Feasible: ok})
	return rows, nil
}

func objOrNaN(f []float64, ok bool) float64 {
	if !ok || len(f) == 0 {
		return math.NaN()
	}
	return f[0]
}

// WriteSolverRows prints the solver comparison.
func WriteSolverRows(w io.Writer, rows []SolverRow) {
	fmt.Fprintf(w, "%-6s %-6s %14s %14s %9s\n", "model", "solver", "time/CO", "objective", "feasible")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-6s %14s %14.2f %9v\n", r.ModelKind, r.Solver, r.TimePerCO.Round(time.Microsecond), r.Objective, r.Feasible)
	}
}
