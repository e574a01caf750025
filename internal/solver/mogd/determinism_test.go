package mogd

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/model/analytic"
	"repro/internal/problem"
	"repro/internal/solver"
)

// multiDimSolver builds a 4-knob 2-objective problem where multi-start
// genuinely matters (the extra dimensions are inert but perturb the start
// draws), configured with the given worker count.
func multiDimSolver(t *testing.T, workers int, seed int64) *Solver {
	t.Helper()
	lat := analytic.Latency{D: 4, MaxExec: 8, MaxCores: 3, Serial: 20, Work: 2400, Shuffle: 6}
	cost := analytic.CoreCost{D: 4, MaxExec: 8, MaxCores: 3}
	return newSolver(t, []model.Model{lat, cost}, nil, Config{Seed: seed, Workers: workers})
}

// TestSolveIndependentOfWorkers proves the concurrency contract: the solution
// (both X and F) is bit-identical between a sequential run and an
// oversubscribed 8-worker run, for several seeds. Run under -race in CI, this
// also exercises the shared pool for data races.
func TestSolveIndependentOfWorkers(t *testing.T) {
	co := solver.CO{Target: 0, Lo: []float64{0, 1}, Hi: []float64{500, 20}}
	for seed := int64(0); seed < 5; seed++ {
		seq := multiDimSolver(t, 1, seed)
		par := multiDimSolver(t, 8, seed)
		for probe := int64(0); probe < 3; probe++ {
			a, okA := seq.Solve(co, probe)
			b, okB := par.Solve(co, probe)
			if okA != okB {
				t.Fatalf("seed %d probe %d: ok %v (1 worker) vs %v (8 workers)", seed, probe, okA, okB)
			}
			if !okA {
				continue
			}
			for j := range a.F {
				if a.F[j] != b.F[j] {
					t.Fatalf("seed %d probe %d: F[%d] %v != %v", seed, probe, j, a.F[j], b.F[j])
				}
			}
			for d := range a.X {
				if a.X[d] != b.X[d] {
					t.Fatalf("seed %d probe %d: X[%d] %v != %v", seed, probe, d, a.X[d], b.X[d])
				}
			}
		}
	}
}

// TestSolveBatchOrderUnderConcurrency proves SolveBatch returns results in
// input order and each entry matches the equivalent standalone Solve, however
// the probes are scheduled across workers.
func TestSolveBatchOrderUnderConcurrency(t *testing.T) {
	par := multiDimSolver(t, 8, 3)
	seq := multiDimSolver(t, 1, 3)
	cos := make([]solver.CO, 6)
	for i := range cos {
		// Distinct upper bounds make every probe's answer distinguishable.
		cos[i] = solver.CO{Target: 0, Lo: []float64{0, 1}, Hi: []float64{500 - 40*float64(i), 24}}
	}
	const seed = int64(17)
	out := par.SolveBatch(cos, seed)
	if len(out) != len(cos) {
		t.Fatalf("batch returned %d results for %d problems", len(out), len(cos))
	}
	for i, r := range out {
		want, okW := seq.Solve(cos[i], seed+int64(i)*7919)
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
		{Workers: -2},
		{Penalty: -5},
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

// TestSolveBatchSharedPoolNesting stresses the shared worker pool: batches
// launched from multiple goroutines nest Solve inside SolveBatch while all
// drawing tokens from one solver's pool. The non-blocking acquire makes
// deadlock impossible by construction; this guards the invariant under -race.
func TestSolveBatchSharedPoolNesting(t *testing.T) {
	s := multiDimSolver(t, 4, 21)
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
