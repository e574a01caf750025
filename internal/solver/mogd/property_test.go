package mogd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/model/analytic"
	"repro/internal/solver"
)

// TestSolveRespectsConstraintsProperty: whenever Solve reports a feasible
// solution to a random middle-probe-style CO problem, the returned objective
// values satisfy the box within the solver's tolerance.
func TestSolveRespectsConstraintsProperty(t *testing.T) {
	lat, cost := analytic.PaperExample2D()
	s := newSolver(t, []model.Model{lat, cost}, nil, Config{Seed: 1, Starts: 4, Iters: 60})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random sub-box of the known objective ranges lat [100,2400],
		// cost [1,24].
		lo := []float64{100 + 1000*rng.Float64(), 1 + 10*rng.Float64()}
		hi := []float64{lo[0] + 100 + 1200*rng.Float64(), lo[1] + 2 + 10*rng.Float64()}
		sol, ok := s.Solve(solver.CO{Target: rng.Intn(2), Lo: lo, Hi: hi}, seed)
		if !ok {
			return true // infeasible is a legal answer
		}
		for j := range sol.F {
			span := hi[j] - lo[j]
			tol := 1e-3 * math.Max(span, 1)
			if sol.F[j] < lo[j]-tol || sol.F[j] > hi[j]+tol {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSolutionsStayInBox: returned decision vectors always live in [0,1]^D.
func TestSolutionsStayInBox(t *testing.T) {
	lat, cost := analytic.PaperExample2D()
	s := newSolver(t, []model.Model{lat, cost}, nil, Config{Seed: 2, Starts: 4, Iters: 60})
	f := func(seed int64) bool {
		sol, ok := s.Minimize(int(uint64(seed)%2), seed)
		if !ok {
			return false // unconstrained minimization always succeeds
		}
		for _, v := range sol.X {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestTighterBoxesNeverBeatLooser: shrinking the feasible box cannot improve
// the achieved optimum (sanity of the constrained search).
func TestTighterBoxesNeverBeatLooser(t *testing.T) {
	lat, cost := analytic.PaperExample2D()
	s := newSolver(t, []model.Model{lat, cost}, nil, Config{Seed: 3, Starts: 8, Iters: 120})
	loose, okLoose := s.Solve(solver.CO{Target: 0, Lo: []float64{100, 1}, Hi: []float64{2400, 24}}, 3)
	tight, okTight := s.Solve(solver.CO{Target: 0, Lo: []float64{100, 1}, Hi: []float64{2400, 12}}, 3)
	if !okLoose || !okTight {
		t.Fatal("both problems are feasible")
	}
	if tight.F[0] < loose.F[0]-1 {
		t.Fatalf("tighter box found better optimum: %v < %v", tight.F[0], loose.F[0])
	}
}
