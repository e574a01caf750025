// Package conformance cross-checks every optimizer in the repository against
// the shared contract of the problem layer: all solver.Solver implementations
// and all moo.Method baselines run over the same synthetic problems, and the
// suite asserts the properties any of them must provide regardless of
// algorithm — returned configurations stay in the decision box, reported
// objective vectors are exactly what the evaluator computes at the returned
// point, frontiers are mutually non-dominated, equal seeds give bit-identical
// results, and every baseline ends with the mandatory final progress
// callback. Run under -race in CI, this also exercises the evaluator's
// concurrent batch path through each method's own usage pattern.
package conformance

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/model/analytic"
	"repro/internal/moo"
	"repro/internal/moo/evo"
	"repro/internal/moo/mobo"
	"repro/internal/moo/nc"
	"repro/internal/moo/ws"
	"repro/internal/objective"
	"repro/internal/problem"
	"repro/internal/solver"
	"repro/internal/solver/exact"
	"repro/internal/solver/mogd"
)

// synthetic describes one shared test problem.
type synthetic struct {
	name string
	objs []model.Model
}

// quadBowl is a smooth convex objective with its minimum at center.
func quadBowl(dim int, center []float64) model.Model {
	return model.Func{D: dim, F: func(x []float64) float64 {
		s := 0.0
		for d := range x {
			v := x[d] - center[d]
			s += v * v
		}
		return s
	}}
}

func problems() []synthetic {
	lat, cost := analytic.PaperExample2D()
	return []synthetic{
		{name: "paper2d", objs: []model.Model{lat, cost}},
		{name: "bowls3d", objs: []model.Model{
			quadBowl(3, []float64{0.1, 0.5, 0.9}),
			quadBowl(3, []float64{0.9, 0.5, 0.1}),
			quadBowl(3, []float64{0.5, 0.9, 0.5}),
		}},
	}
}

func newEvaluator(t *testing.T, objs []model.Model) *problem.Evaluator {
	t.Helper()
	p, err := problem.New(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return problem.NewEvaluator(p, problem.Options{})
}

// methodsFor builds every moo.Method over a shared evaluator, with budgets
// small enough for -race.
func methodsFor(ev *problem.Evaluator) []moo.Method {
	return []moo.Method{
		&ws.Method{Evaluator: ev, Starts: 2, Iters: 40},
		&nc.Method{Evaluator: ev, Starts: 2, Iters: 40},
		&evo.Method{Evaluator: ev, Pop: 20, GensPerPoint: 1, MinGens: 5},
		&mobo.Method{Evaluator: ev, Acq: mobo.QEHVI, Init: 6, Candidates: 32, MCSamples: 8, GPIters: 5},
		&mobo.Method{Evaluator: ev, Acq: mobo.PESM, Init: 6, Candidates: 32, MCSamples: 16, GPIters: 5},
	}
}

// checkFrontier asserts the shared frontier contract for a method's result.
func checkFrontier(t *testing.T, ev *problem.Evaluator, front []objective.Solution) {
	t.Helper()
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	dim := ev.Dim()
	for i, s := range front {
		if len(s.X) != dim || len(s.F) != ev.NumObjectives() {
			t.Fatalf("solution %d has X dim %d, F dim %d", i, len(s.X), len(s.F))
		}
		for d, v := range s.X {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("solution %d leaves the decision box: x[%d] = %v", i, d, v)
			}
		}
		// The reported objective vector must be exactly the evaluator's
		// output at the reported point — no method-private evaluation paths.
		want := ev.Eval(s.X)
		for j := range want {
			if s.F[j] != want[j] {
				t.Fatalf("solution %d reports F[%d] = %v, evaluator says %v", i, j, s.F[j], want[j])
			}
		}
	}
	for i := range front {
		for j := range front {
			if i != j && front[i].F.Dominates(front[j].F) {
				t.Fatalf("frontier not mutually non-dominated: %v dominates %v", front[i].F, front[j].F)
			}
		}
	}
}

func TestMethodConformance(t *testing.T) {
	for _, p := range problems() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, m := range methodsFor(newEvaluator(t, p.objs)) {
				m := m
				t.Run(m.Name(), func(t *testing.T) {
					t.Parallel()
					ev := newEvaluator(t, p.objs)
					front, err := m.Run(moo.Options{Points: 4, Seed: 7})
					if err != nil {
						t.Fatal(err)
					}
					checkFrontier(t, ev, front)
				})
			}
		})
	}
}

func TestMethodSeedDeterminism(t *testing.T) {
	for _, p := range problems() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for i, m := range methodsFor(newEvaluator(t, p.objs)) {
				// Fresh method (and evaluator) per run: determinism must not
				// depend on shared memo state.
				m2 := methodsFor(newEvaluator(t, p.objs))[i]
				t.Run(m.Name(), func(t *testing.T) {
					t.Parallel()
					a, err := m.Run(moo.Options{Points: 4, Seed: 11})
					if err != nil {
						t.Fatal(err)
					}
					b, err := m2.Run(moo.Options{Points: 4, Seed: 11})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("same seed, different frontiers:\n%v\nvs\n%v", a, b)
					}
				})
			}
		})
	}
}

// TestMethodFinalCallback pins the OnProgress contract documented on
// moo.Options: every method emits at least one callback, and the last one
// carries exactly the frontier the method returns.
func TestMethodFinalCallback(t *testing.T) {
	p := problems()[0]
	for _, m := range methodsFor(newEvaluator(t, p.objs)) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			var last []objective.Solution
			calls := 0
			front, err := m.Run(moo.Options{
				Points: 4,
				Seed:   3,
				OnProgress: func(_ time.Duration, f []objective.Solution) {
					calls++
					last = append(last[:0], f...)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if calls == 0 {
				t.Fatal("no progress callbacks emitted")
			}
			if !reflect.DeepEqual(last, front) {
				t.Fatalf("final callback frontier differs from the returned frontier:\n%v\nvs\n%v", last, front)
			}
		})
	}
}

// solversFor builds every solver.Solver over a shared evaluator.
func solversFor(t *testing.T, ev *problem.Evaluator) map[string]solver.Solver {
	t.Helper()
	mg, err := mogd.New(ev, mogd.Config{Starts: 3, Iters: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ex := exact.New(ev, exact.Config{Samples: 512, Refine: 1, Steps: 8})
	return map[string]solver.Solver{"mogd": mg, "exact": ex}
}

// unconstrained builds the CO minimizing objective target with open bounds.
func unconstrained(k, target int) solver.CO {
	lo := make([]float64, k)
	hi := make([]float64, k)
	for j := range lo {
		lo[j] = math.Inf(-1)
		hi[j] = math.Inf(1)
	}
	return solver.CO{Target: target, Lo: lo, Hi: hi}
}

func TestSolverConformance(t *testing.T) {
	for _, p := range problems() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for name, s := range solversFor(t, newEvaluator(t, p.objs)) {
				name, s := name, s
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					ev := newEvaluator(t, p.objs)
					k := ev.NumObjectives()
					for target := 0; target < k; target++ {
						co := unconstrained(k, target)
						sol, ok := s.Solve(co, 13)
						if !ok {
							t.Fatalf("target %d: no solution on an unconstrained problem", target)
						}
						for d, v := range sol.X {
							if v < 0 || v > 1 || math.IsNaN(v) {
								t.Fatalf("target %d: x[%d] = %v leaves the box", target, d, v)
							}
						}
						want := ev.Eval(sol.X)
						for j := range want {
							if sol.F[j] != want[j] {
								t.Fatalf("target %d: F[%d] = %v, evaluator says %v", target, j, sol.F[j], want[j])
							}
						}
					}
				})
			}
		})
	}
}

func TestSolverSeedDeterminism(t *testing.T) {
	for _, p := range problems() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for name := range solversFor(t, newEvaluator(t, p.objs)) {
				name := name
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					k := len(p.objs)
					co := unconstrained(k, 0)
					a, okA := solversFor(t, newEvaluator(t, p.objs))[name].Solve(co, 17)
					b, okB := solversFor(t, newEvaluator(t, p.objs))[name].Solve(co, 17)
					if okA != okB || !reflect.DeepEqual(a, b) {
						t.Fatalf("same seed, different solutions:\n%v (%v)\nvs\n%v (%v)", a, okA, b, okB)
					}
				})
			}
		})
	}
}

// TestSolverBatchMatchesSolve pins SolveBatch's contract: results in input
// order, each identical to the corresponding sequential Solve (mogd seeds
// probe i with seed+i*7919, which the comparison reproduces).
func TestSolverBatchMatchesSolve(t *testing.T) {
	p := problems()[0]
	t.Run("exact", func(t *testing.T) {
		ev := newEvaluator(t, p.objs)
		s := solversFor(t, ev)["exact"]
		k := len(p.objs)
		cos := []solver.CO{unconstrained(k, 0), unconstrained(k, 1)}
		batch := s.SolveBatch(cos, 23)
		for i, co := range cos {
			sol, ok := s.Solve(co, 23)
			if ok != batch[i].OK || !reflect.DeepEqual(sol, batch[i].Sol) {
				t.Fatalf("batch[%d] differs from sequential Solve", i)
			}
		}
	})
}
