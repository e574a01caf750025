package mogd

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/model/analytic"
	"repro/internal/problem"
	"repro/internal/solver"
)

// multiDimSolver builds a 4-knob 2-objective problem where multi-start
// genuinely matters (the extra dimensions are inert but perturb the start
// draws).
func multiDimSolver(t *testing.T, seed int64) *Solver {
	t.Helper()
	lat := analytic.Latency{D: 4, MaxExec: 8, MaxCores: 3, Serial: 20, Work: 2400, Shuffle: 6}
	cost := analytic.CoreCost{D: 4, MaxExec: 8, MaxCores: 3}
	return newSolver(t, []model.Model{lat, cost}, nil, Config{Seed: seed})
}

// solveBatchAt runs s.SolveBatch under GOMAXPROCS procs, which bounds how
// many goroutines its probes run on.
func solveBatchAt(procs int, s *Solver, cos []solver.CO, seed int64) []solver.Result {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return s.SolveBatch(cos, seed)
}

// bitsEqual reports whether a and b hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSolveIndependentOfWorkers proves the concurrency contract: SolveBatch's
// results (both X and F) have the same bits at GOMAXPROCS 1, where every
// probe runs on the calling goroutine, and at GOMAXPROCS 8, where the probes
// spread over up to eight goroutines, for several seeds. Run under -race in
// CI, this also checks concurrent probes for data races.
func TestSolveIndependentOfWorkers(t *testing.T) {
	cos := make([]solver.CO, 6)
	for i := range cos {
		cos[i] = solver.CO{Target: 0, Lo: []float64{0, 1}, Hi: []float64{500 - 40*float64(i), 20}}
	}
	for seed := int64(0); seed < 5; seed++ {
		a := solveBatchAt(1, multiDimSolver(t, seed), cos, 17)
		b := solveBatchAt(8, multiDimSolver(t, seed), cos, 17)
		for i := range a {
			if a[i].OK != b[i].OK {
				t.Fatalf("seed %d probe %d: ok %v (GOMAXPROCS 1) vs %v (8)", seed, i, a[i].OK, b[i].OK)
			}
			if !bitsEqual(a[i].Sol.F, b[i].Sol.F) || !bitsEqual(a[i].Sol.X, b[i].Sol.X) {
				t.Fatalf("seed %d probe %d: F %v X %v (GOMAXPROCS 1) vs F %v X %v (8)",
					seed, i, a[i].Sol.F, a[i].Sol.X, b[i].Sol.F, b[i].Sol.X)
			}
		}
	}
}

// TestSolveBatchOrderUnderConcurrency proves SolveBatch returns results in
// input order and each entry matches the equivalent standalone Solve, however
// the probes are scheduled across goroutines.
func TestSolveBatchOrderUnderConcurrency(t *testing.T) {
	s := multiDimSolver(t, 3)
	cos := make([]solver.CO, 6)
	for i := range cos {
		// Distinct upper bounds make every probe's answer distinguishable.
		cos[i] = solver.CO{Target: 0, Lo: []float64{0, 1}, Hi: []float64{500 - 40*float64(i), 24}}
	}
	const seed = int64(17)
	out := solveBatchAt(8, s, cos, seed)
	if len(out) != len(cos) {
		t.Fatalf("batch returned %d results for %d problems", len(out), len(cos))
	}
	for i, r := range out {
		want, okW := s.Solve(cos[i], seed+int64(i)*7919)
		if r.OK != okW {
			t.Fatalf("probe %d: ok %v, want %v", i, r.OK, okW)
		}
		if !r.OK {
			continue
		}
		for j := range want.F {
			if r.Sol.F[j] != want.F[j] {
				t.Fatalf("probe %d: F[%d] = %v, want %v (result out of order?)", i, j, r.Sol.F[j], want.F[j])
			}
		}
	}
}

// TestConfigRejectsNegatives covers the Config.validate contract: zero means
// "use the default", negative (or NaN) settings are configuration errors.
func TestConfigRejectsNegatives(t *testing.T) {
	lat, cost := analytic.PaperExample()
	ev := problem.NewEvaluator(problem.MustNew([]model.Model{lat, cost}, nil), problem.Options{})
	bad := []Config{
		{Starts: -1},
		{Iters: -3},
	}
	for i, cfg := range bad {
		if _, err := New(ev, cfg); err == nil {
			t.Errorf("config %d (%+v): expected validation error", i, cfg)
		}
	}
	if _, err := New(ev, Config{}); err != nil {
		t.Fatalf("all-zero config must be valid, got %v", err)
	}
}

// TestSolveBatchConcurrentCalls runs three SolveBatch calls on one solver at
// once, each fanning its probes out over goroutines of its own, so under
// -race it checks that concurrent batches share the solver's scratch pool
// and counters safely.
func TestSolveBatchConcurrentCalls(t *testing.T) {
	s := multiDimSolver(t, 21)
	co := solver.CO{Target: 0, Lo: []float64{0, 1}, Hi: []float64{500, 24}}
	done := make(chan error, 3)
	for g := 0; g < 3; g++ {
		go func(g int) {
			cos := []solver.CO{co, co, co}
			out := s.SolveBatch(cos, int64(g))
			for i, r := range out {
				if !r.OK {
					done <- fmt.Errorf("goroutine %d probe %d found no solution", g, i)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 3; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
