// Package exact provides a slow, thorough constrained-optimization solver
// that plays the role Knitro plays in the paper (§V): a near-exact reference
// against which MOGD's speed and solution quality are compared, and the
// subroutine that makes PF-S deterministic (§IV-A).
//
// It evaluates the objectives on a low-discrepancy Halton sample of the
// decision box (optionally snapped onto the configuration lattice), keeps
// the best feasible point, and polishes it with several passes of coordinate
// line search. With enough samples this approaches the global optimum of
// each CO problem at a cost orders of magnitude above MOGD — the same
// trade-off the paper reports for Knitro.
//
// All model access goes through a problem.Evaluator. That matters here more
// than anywhere: every Solve sweeps the same Halton sample snapped onto the
// same lattice, so across the many CO problems of one PF-S run the bulk of
// the sweep hits the evaluator's memo cache instead of re-running the models.
package exact

import (
	"fmt"
	"math"

	"repro/internal/objective"
	"repro/internal/par"
	"repro/internal/problem"
	"repro/internal/solver"
	"repro/internal/space"
)

// Config tunes the search effort.
type Config struct {
	Samples int // Halton samples (default 4096)
	Refine  int // coordinate line-search passes (default 3)
	Steps   int // line-search resolution per pass (default 32)
}

func (c *Config) defaults() {
	if c.Samples == 0 {
		c.Samples = 4096
	}
	if c.Refine == 0 {
		c.Refine = 3
	}
	if c.Steps == 0 {
		c.Steps = 32
	}
}

// Solver is a deterministic sampling-based CO solver.
type Solver struct {
	ev  *problem.Evaluator
	spc *space.Space // optional rounding lattice
	cfg Config
	dim int
	k   int
}

// New builds a solver on the evaluator, which owns the models and the
// rounding lattice; sharing it shares the memo cache and evaluation counter
// with the caller's other optimizers.
func New(ev *problem.Evaluator, cfg Config) *Solver {
	cfg.defaults()
	return &Solver{ev: ev, spc: ev.Problem().Space, cfg: cfg, dim: ev.Dim(), k: ev.NumObjectives()}
}

// NumObjectives implements solver.Solver.
func (s *Solver) NumObjectives() int { return s.k }

// Evals implements solver.Solver.
func (s *Solver) Evals() uint64 { return s.ev.Evals() }

var primes = []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89}

// Halton returns element i of the Halton sequence in dimension d: the
// radical inverse of i+1 in the d-th prime base (bases repeat past the 24th
// dimension).
func Halton(i, d int) float64 {
	base := primes[d%len(primes)]
	f, r := 1.0, 0.0
	for n := i + 1; n > 0; n /= base {
		f /= float64(base)
		r += f * float64(n%base)
	}
	return r
}

func feasible(co solver.CO, f objective.Point) bool {
	for j := range f {
		if !math.IsInf(co.Lo[j], -1) && f[j] < co.Lo[j] {
			return false
		}
		if !math.IsInf(co.Hi[j], 1) && f[j] > co.Hi[j] {
			return false
		}
	}
	return true
}

// snap rounds x to the configuration lattice when one is configured.
func (s *Solver) snap(x []float64) []float64 {
	if s.spc == nil {
		return x
	}
	r, err := s.spc.Round(x)
	if err != nil {
		return x
	}
	return r
}

// Solve implements solver.Solver. The seed is ignored: the solver is fully
// deterministic, which is what makes PF-S's frontiers reproducible.
func (s *Solver) Solve(co solver.CO, _ int64) (objective.Solution, bool) {
	if len(co.Lo) != s.k || len(co.Hi) != s.k {
		panic(fmt.Sprintf("exact: CO bounds have %d/%d entries for %d objectives", len(co.Lo), len(co.Hi), s.k))
	}
	var bestX []float64
	var bestF objective.Point
	bestVal := math.Inf(1)
	f := make(objective.Point, s.k)
	try := func(x []float64) {
		x = s.snap(x)
		// Snapped sweep points repeat across CO problems — memo hits.
		s.ev.EvalInto(x, f)
		if !feasible(co, f) {
			return
		}
		// Ties on the target objective are broken by Pareto dominance:
		// without this, a dominated tie could be returned and the Middle
		// Point Probe's "lower cell is empty" argument (Prop. A.3) would
		// discard the true Pareto point sharing the target value.
		if f[co.Target] < bestVal || (f[co.Target] == bestVal && f.Dominates(bestF)) {
			bestVal = f[co.Target]
			bestX = append([]float64(nil), x...)
			bestF = f.Clone()
		}
	}
	// Center first (the default configuration), then the Halton sweep.
	center := make([]float64, s.dim)
	for d := range center {
		center[d] = 0.5
	}
	try(center)
	x := make([]float64, s.dim)
	for i := 0; i < s.cfg.Samples; i++ {
		for d := 0; d < s.dim; d++ {
			x[d] = Halton(i, d)
		}
		try(x)
	}
	if bestX == nil {
		return objective.Solution{}, false
	}
	// Coordinate line-search refinement around the incumbent.
	span := 0.5
	for pass := 0; pass < s.cfg.Refine; pass++ {
		for d := 0; d < s.dim; d++ {
			base := append([]float64(nil), bestX...)
			lo := math.Max(0, base[d]-span)
			hi := math.Min(1, base[d]+span)
			for step := 0; step <= s.cfg.Steps; step++ {
				base[d] = lo + (hi-lo)*float64(step)/float64(s.cfg.Steps)
				try(base)
			}
		}
		span /= 4
	}
	return objective.Solution{F: bestF, X: bestX}, true
}

// SolveBatch implements solver.Solver, solving the problems concurrently on
// par.For. Each result is the problem's Solve, so the batch is
// deterministic too.
func (s *Solver) SolveBatch(cos []solver.CO, seed int64) []solver.Result {
	out := make([]solver.Result, len(cos))
	par.For(len(cos), func(i int) {
		sol, ok := s.Solve(cos[i], seed)
		out[i] = solver.Result{Sol: sol, OK: ok}
	})
	return out
}
