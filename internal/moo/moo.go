// Package moo defines the common contract for the multi-objective
// optimization baselines the paper compares against (§VI-A): Weighted Sum
// (subpackage ws), Normalized Normal Constraints (nc), the NSGA-II
// evolutionary method (evo), and multi-objective Bayesian optimization
// (mobo, covering qEHVI- and PESM-style acquisitions). The Progressive
// Frontier algorithms live in internal/core and are adapted to this
// interface by the experiment harness.
//
// Every method is built on the problem.Evaluator its caller hands it — the
// repository-wide evaluation seam, and the methods' one input — so they
// inherit the fused value+gradient hot path, batch evaluation, memoization,
// and a comparable evaluation count.
package moo

import (
	"math"
	"math/rand"
	"time"

	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/problem"
)

// Options controls a baseline run.
type Options struct {
	// Points is the number of Pareto points requested (the paper's "probes").
	Points int
	// Seed drives all randomized components.
	Seed int64
	// TimeBudget optionally caps wall-clock time; zero means unlimited. The
	// budget is checked between units of work (a scalarized solve, a
	// sub-problem, a generation, an acquisition round) — the unit in flight
	// is never interrupted, so runs may overshoot by one unit.
	TimeBudget time.Duration
	// OnProgress, when non-nil, is invoked whenever the method's frontier
	// estimate changes, with the elapsed time and the current
	// dominance-filtered frontier. Every method additionally emits exactly
	// one final callback with the frontier it is about to return — also when
	// the time budget cut the run short — so observers always see the
	// terminal state.
	OnProgress func(elapsed time.Duration, frontier []objective.Solution)
}

// Method approximates the Pareto frontier of a set of objective models over
// the normalized decision box [0,1]^D.
type Method interface {
	// Name identifies the method in experiment output ("WS", "NC", ...).
	Name() string
	// Run computes a frontier under the given options.
	Run(opt Options) ([]objective.Solution, error)
}

// Tracker is the shared TimeBudget/OnProgress plumbing of Options,
// implementing the contract documented there so the four baselines cannot
// drift apart. Obtain one per Run via Options.Track.
type Tracker struct {
	clock problem.Clock
	cb    func(elapsed time.Duration, frontier []objective.Solution)
}

// Track starts the run's clock and returns its tracker.
func (o Options) Track() *Tracker {
	return &Tracker{clock: problem.StartClock(o.TimeBudget), cb: o.OnProgress}
}

// Expired reports whether the time budget is exhausted.
func (t *Tracker) Expired() bool { return t.clock.Expired() }

// Report emits a progress callback with the current frontier estimate.
func (t *Tracker) Report(frontier []objective.Solution) {
	if t.cb != nil {
		t.cb(t.clock.Elapsed(), frontier)
	}
}

// Finish emits the mandatory final callback and returns the frontier, so a
// Run can end with "return tr.Finish(front), nil".
func (t *Tracker) Finish(frontier []objective.Solution) []objective.Solution {
	t.Report(frontier)
	return frontier
}

// SimplexWeights enumerates n weight vectors on the unit simplex in k
// dimensions — WS's scalarization weights and NC's utopia-plane
// combinations: a uniform sweep in 2D, and in higher dimensions the first n
// points of the smallest simplex lattice of degree h with C(h+k-1, k-1) >= n.
func SimplexWeights(n, k int) [][]float64 {
	var out [][]float64
	if k == 2 {
		for i := 0; i < n; i++ {
			w := float64(i) / float64(max(n-1, 1))
			out = append(out, []float64{w, 1 - w})
		}
		return out
	}
	h := 1
	for simplexCount(h, k) < n {
		h++
	}
	var rec func(prefix []float64, left, dims int)
	rec = func(prefix []float64, left, dims int) {
		if len(out) >= n {
			return
		}
		if dims == 1 {
			out = append(out, append(append([]float64(nil), prefix...), float64(left)/float64(h)))
			return
		}
		for v := 0; v <= left; v++ {
			rec(append(prefix, float64(v)/float64(h)), left-v, dims-1)
		}
	}
	rec(nil, h, k)
	return out
}

// simplexCount is C(h+k-1, k-1), the size of the degree-h lattice.
func simplexCount(h, k int) int {
	n := 1
	for i := 1; i <= k-1; i++ {
		n = n * (h + i) / i
	}
	return n
}

// lr is the Adam learning rate of MinimizeSingle.
const lr = 0.05

// MinimizeSingle runs multi-start Adam on one objective over [0,1]^D — the
// anchor-point subroutine shared by WS and NC (the individual minima that
// define the utopia geometry of both methods).
//
// Each iteration costs exactly one fused ValueGrad pass (§IV-B hot path);
// the value of every iterate comes for free with its gradient, so the best
// point seen anywhere on a trajectory — not just its endpoint — becomes the
// start's candidate. All per-iteration buffers are hoisted, so the inner
// loop does not allocate.
func MinimizeSingle(m model.Model, starts, iters int, rng *rand.Rand) ([]float64, float64) {
	vg := model.EnsureValueGrad(m)
	dim := m.Dim()
	bestX := make([]float64, dim)
	bestF := math.Inf(1)
	x := make([]float64, dim)
	grad := make([]float64, dim)
	mA := make([]float64, dim)
	vA := make([]float64, dim)
	consider := func(f float64) {
		if f < bestF {
			bestF = f
			copy(bestX, x)
		}
	}
	for s := 0; s < starts; s++ {
		if s == 0 {
			for d := range x {
				x[d] = 0.5
			}
		} else {
			for d := range x {
				x[d] = rng.Float64()
			}
		}
		for d := range mA {
			mA[d] = 0
			vA[d] = 0
		}
		const b1, b2, eps = 0.9, 0.999, 1e-8
		for it := 1; it <= iters; it++ {
			f, g := vg.ValueGrad(x, grad)
			consider(f)
			t := float64(it)
			c1 := 1 - math.Pow(b1, t)
			c2 := 1 - math.Pow(b2, t)
			for d := range x {
				gv := g[d]
				mA[d] = b1*mA[d] + (1-b1)*gv
				vA[d] = b2*vA[d] + (1-b2)*gv*gv
				step := lr * (mA[d] / c1) / (math.Sqrt(vA[d]/c2) + eps)
				x[d] = linalg.Clamp(x[d]-step, 0, 1)
			}
		}
		f, _ := vg.ValueGrad(x, grad)
		consider(f)
	}
	return bestX, bestF
}

// Anchors computes the k per-objective minima and the resulting global
// Utopia/Nadir box over the anchor points, evaluating through ev.
func Anchors(ev *problem.Evaluator, starts, iters int, rng *rand.Rand) (sols []objective.Solution, utopia, nadir objective.Point) {
	k := ev.NumObjectives()
	refs := make([]objective.Point, 0, k)
	for j := 0; j < k; j++ {
		x, _ := MinimizeSingle(ev.Objective(j), starts, iters, rng)
		f := ev.Eval(x)
		sols = append(sols, objective.Solution{F: f, X: x})
		refs = append(refs, f)
	}
	utopia, nadir = objective.Bounds(refs)
	return sols, utopia, nadir
}
