package exact

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/model/analytic"
	"repro/internal/problem"
	"repro/internal/solver"
	"repro/internal/space"
)

// newSolver builds a solver over a fresh evaluator on the models.
func newSolver(objs []model.Model, spc *space.Space, cfg Config) *Solver {
	return New(problem.NewEvaluator(problem.MustNew(objs, spc), problem.Options{}), cfg)
}

func paperSolver(t *testing.T) *Solver {
	lat, cost := analytic.PaperExample()
	return newSolver([]model.Model{lat, cost}, nil, Config{Samples: 512})
}

func TestHaltonProperties(t *testing.T) {
	// Values lie in (0,1) and are reasonably equidistributed.
	n := 1000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := Halton(i, 0)
		if v <= 0 || v >= 1 {
			t.Fatalf("Halton(%d,0) = %v out of (0,1)", i, v)
		}
		sum += v
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("halton mean = %v, want ~0.5", mean)
	}
	// Different dimensions use different bases.
	if Halton(5, 0) == Halton(5, 1) {
		t.Fatal("dimensions 0 and 1 should differ")
	}
}

func TestMiddlePointProbeNearExact(t *testing.T) {
	s := paperSolver(t)
	sol, ok := s.Solve(solver.CO{Target: 0, Lo: []float64{100, 8}, Hi: []float64{200, 16}}, 0)
	if !ok {
		t.Fatal("no solution")
	}
	// True optimum latency = 150 at cores = 16.
	if math.Abs(sol.F[0]-150) > 0.5 {
		t.Fatalf("latency = %v, want ~150", sol.F[0])
	}
}

func TestInfeasible(t *testing.T) {
	s := paperSolver(t)
	if _, ok := s.Solve(solver.CO{Target: 0, Lo: []float64{10, 1}, Hi: []float64{90, 24}}, 0); ok {
		t.Fatal("expected infeasible")
	}
}

func TestUnboundedMinimization(t *testing.T) {
	s := paperSolver(t)
	lo := []float64{math.Inf(-1), math.Inf(-1)}
	hi := []float64{math.Inf(1), math.Inf(1)}
	sol, ok := s.Solve(solver.CO{Target: 0, Lo: lo, Hi: hi}, 0)
	if !ok || sol.F[0] > 100.5 {
		t.Fatalf("global latency min = %v, want ~100", sol.F)
	}
	sol, ok = s.Solve(solver.CO{Target: 1, Lo: lo, Hi: hi}, 0)
	if !ok || sol.F[1] > 1.05 {
		t.Fatalf("global cost min = %v, want ~1", sol.F)
	}
}

func TestLatticeSnapping(t *testing.T) {
	spc := space.MustNew([]space.Var{{Name: "cores", Kind: space.Integer, Min: 1, Max: 24}})
	lat := model.Func{D: 1, F: func(x []float64) float64 {
		return math.Max(100, 2400/(1+23*x[0]))
	}}
	cost := model.Func{D: 1, F: func(x []float64) float64 { return 1 + 23*x[0] }}
	s := newSolver([]model.Model{lat, cost}, spc, Config{Samples: 256})
	sol, ok := s.Solve(solver.CO{Target: 0, Lo: []float64{100, 8}, Hi: []float64{200, 16}}, 0)
	if !ok {
		t.Fatal("no solution")
	}
	vals, _ := spc.Decode(sol.X)
	if v := float64(vals[0]); v != math.Round(v) {
		t.Fatalf("cores = %v not integral", v)
	}
	if sol.F[1] != 16 { // best integral point is exactly 16 cores
		t.Fatalf("cost = %v, want 16", sol.F[1])
	}
}

func TestDeterministic(t *testing.T) {
	s := paperSolver(t)
	co := solver.CO{Target: 0, Lo: []float64{100, 8}, Hi: []float64{200, 16}}
	a, _ := s.Solve(co, 1)
	b, _ := s.Solve(co, 999) // seed ignored
	if a.F[0] != b.F[0] || a.F[1] != b.F[1] {
		t.Fatal("exact solver should be deterministic")
	}
}

func TestSolveBatch(t *testing.T) {
	s := paperSolver(t)
	cos := []solver.CO{
		{Target: 0, Lo: []float64{100, 8}, Hi: []float64{200, 16}},
		{Target: 0, Lo: []float64{10, 1}, Hi: []float64{90, 24}},
		{Target: 1, Lo: []float64{100, 1}, Hi: []float64{2400, 24}},
	}
	out := s.SolveBatch(cos, 0)
	if !out[0].OK || out[1].OK || !out[2].OK {
		t.Fatalf("batch feasibility wrong: %v %v %v", out[0].OK, out[1].OK, out[2].OK)
	}
	// Single goroutine path.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s2 := New(problem.NewEvaluator(s.ev.Problem(), problem.Options{}), Config{Samples: 128})
	out2 := s2.SolveBatch(cos[:1], 0)
	if !out2[0].OK {
		t.Fatal("single goroutine batch failed")
	}
}

func TestImplementsSolverInterface(t *testing.T) {
	var _ solver.Solver = paperSolver(t)
}

func TestSolvePanicsOnBadBounds(t *testing.T) {
	s := paperSolver(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Solve(solver.CO{Target: 0, Lo: []float64{1}, Hi: []float64{2}}, 0)
}
