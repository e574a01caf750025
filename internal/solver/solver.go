// Package solver defines the constrained-optimization contract between the
// Progressive Frontier algorithms (package core) and the optimizers that
// realize the Middle Point Probe: the approximate MOGD solver (§IV-B,
// subpackage mogd) and the slow near-exact reference solver standing in for
// Knitro (§V, subpackage exact).
package solver

import "repro/internal/objective"

// CO is one constrained-optimization problem (Problem A.1): minimize
// objective Target subject to Lo[j] ≤ Fj(x) ≤ Hi[j] for every objective j,
// with x confined to the normalized decision box [0,1]^D. Bounds may be ±Inf
// to deactivate a side.
type CO struct {
	Target int
	Lo, Hi []float64
}

// Result is the outcome of one CO problem.
type Result struct {
	Sol objective.Solution
	OK  bool
}

// Solver solves CO problems over a fixed set of objective models.
type Solver interface {
	// NumObjectives returns k, the number of objectives.
	NumObjectives() int
	// Solve returns the best feasible solution found and whether any
	// feasible point exists within the solver's search effort.
	Solve(co CO, seed int64) (objective.Solution, bool)
	// SolveBatch solves several CO problems, possibly concurrently,
	// returning results in input order (the PF-AP fan-out).
	SolveBatch(cos []CO, seed int64) []Result
	// Evals reports the model passes performed so far through the solver's
	// evaluator — the §VI efficiency axis PF snapshots carry.
	Evals() uint64
}
