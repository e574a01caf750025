package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/solver/exact"
	"repro/internal/space"
)

// randomLattice builds a random 2-objective problem over a 16-point integer
// lattice whose true Pareto set is computable by brute force: F1 is a random
// decreasing step function of the knob, F2 a random increasing one (plus
// noise-free jitter), so the frontier varies per seed.
func randomLattice(seed int64) ([]model.Model, *space.Space, []objective.Point) {
	rng := rand.New(rand.NewSource(seed))
	const n = 16
	f1 := make([]float64, n)
	f2 := make([]float64, n)
	v1, v2 := 1000.0, 1.0
	for i := 0; i < n; i++ {
		// Keep distinct objective values well separated so the run's
		// documented epsilon-band sacrifice (1e-6 of the span) cannot
		// swallow a true Pareto point.
		v1 -= 1 + rng.Float64()*60
		v2 += 0.2 + rng.Float64()*4
		// Occasionally make a point dominated by flattening one objective.
		if rng.Float64() < 0.3 && i > 0 {
			f1[i] = f1[i-1]
		} else {
			f1[i] = v1
		}
		f2[i] = v2
	}
	spc := space.MustNew([]space.Var{{Name: "k", Kind: space.Integer, Min: 0, Max: n - 1}})
	idx := func(x []float64) int {
		i := int(math.Round(x[0] * (n - 1)))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return i
	}
	m1 := model.Func{D: 1, F: func(x []float64) float64 { return f1[idx(x)] }}
	m2 := model.Func{D: 1, F: func(x []float64) float64 { return f2[idx(x)] }}
	// Brute-force Pareto set.
	var all []objective.Solution
	for i := 0; i < n; i++ {
		all = append(all, objective.Solution{F: objective.Point{f1[i], f2[i]}, X: []float64{float64(i) / (n - 1)}})
	}
	truth := objective.Filter(all)
	pts := make([]objective.Point, len(truth))
	for i := range truth {
		pts[i] = truth[i].F
	}
	return []model.Model{m1, m2}, spc, pts
}

// TestPFSCompletenessRandomInstances: Proposition III.1 across random finite
// frontiers — PF-S with the exact solver recovers exactly the brute-force
// Pareto set.
func TestPFSCompletenessRandomInstances(t *testing.T) {
	f := func(seed int64) bool {
		models, spc, truth := randomLattice(seed)
		s := exact.New(newEvaluator(models, spc), exact.Config{Samples: 256})
		front, err := NewRun(s, false, Options{MinRectFrac: 1e-9}).Expand(300)
		if err != nil {
			return false
		}
		if len(front) != len(truth) {
			return false
		}
		for _, w := range truth {
			found := false
			for _, g := range front {
				if math.Abs(g.F[0]-w[0]) < 1e-9 && math.Abs(g.F[1]-w[1]) < 1e-9 {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropA5NoParetoOutsideInitialRect: in 2D, every true Pareto point lies
// inside the hyperrectangle spanned by the two reference points
// (Proposition A.5).
func TestPropA5NoParetoOutsideInitialRect(t *testing.T) {
	f := func(seed int64) bool {
		models, spc, truth := randomLattice(seed)
		s := exact.New(newEvaluator(models, spc), exact.Config{Samples: 256})
		plans, err := referencePoints(s, Options{
			Lower: objective.Point{math.Inf(-1), math.Inf(-1)},
			Upper: objective.Point{math.Inf(1), math.Inf(1)},
		})
		if err != nil {
			return false
		}
		rect, ok := initialRect(plans)
		if !ok {
			return true // degenerate frontier: single point, nothing outside
		}
		for _, p := range truth {
			if !rect.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropA3FailedProbeMeansEmpty: when the exact solver reports a
// middle-point probe infeasible, brute force confirms no Pareto point lies
// in the probed half-box (Proposition A.3).
func TestPropA3FailedProbeMeansEmpty(t *testing.T) {
	f := func(seed int64) bool {
		models, spc, truth := randomLattice(seed)
		s := exact.New(newEvaluator(models, spc), exact.Config{Samples: 256})
		plans, err := referencePoints(s, Options{
			Lower: objective.Point{math.Inf(-1), math.Inf(-1)},
			Upper: objective.Point{math.Inf(1), math.Inf(1)},
		})
		if err != nil {
			return false
		}
		rect, ok := initialRect(plans)
		if !ok {
			return true
		}
		// Probe random sub-rectangles' lower half-boxes.
		rng := rand.New(rand.NewSource(seed ^ 0x5f5f))
		for trial := 0; trial < 8; trial++ {
			u := make(objective.Point, 2)
			n := make(objective.Point, 2)
			for d := 0; d < 2; d++ {
				a := rect.Utopia[d] + rng.Float64()*(rect.Nadir[d]-rect.Utopia[d])
				b := rect.Utopia[d] + rng.Float64()*(rect.Nadir[d]-rect.Utopia[d])
				u[d], n[d] = math.Min(a, b), math.Max(a, b)
			}
			sub := objective.Rect{Utopia: u, Nadir: n}
			co := middleCO(sub)
			_, found := s.Solve(co, 0)
			if !found {
				// The half-box must contain no true Pareto point.
				half := objective.Rect{Utopia: u, Nadir: sub.Middle()}
				for _, p := range truth {
					if half.Contains(p) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
