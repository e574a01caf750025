package evo

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/model/analytic"
	"repro/internal/moo"
	"repro/internal/objective"
	"repro/internal/problem"
)

// paperEvaluator builds a fresh evaluator over Fig. 3(f)'s models.
func paperEvaluator() *problem.Evaluator {
	lat, cost := analytic.PaperExample2D()
	return problem.NewEvaluator(problem.MustNew([]model.Model{lat, cost}, nil), problem.Options{})
}

func method() *Method {
	return &Method{Evaluator: paperEvaluator(), Pop: 30}
}

func TestRunProducesNonDominatedFront(t *testing.T) {
	front, err := method().Run(moo.Options{Points: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 5 {
		t.Fatalf("NSGA-II front has %d points", len(front))
	}
	for i := range front {
		for j := range front {
			if i != j && front[i].F.Dominates(front[j].F) {
				t.Fatal("dominated point in front")
			}
		}
	}
}

func TestConvergesTowardTrueFrontier(t *testing.T) {
	front, err := method().Run(moo.Options{Points: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]objective.Point, len(front))
	for i := range front {
		pts[i] = front[i].F
	}
	u := metrics.UncertainFraction(pts, objective.Point{100, 1}, objective.Point{2400, 24})
	if u > 0.5 {
		t.Fatalf("NSGA-II uncertainty %v, want < 0.5 after 80 generations", u)
	}
}

// TestInconsistencyAcrossBudgets reproduces Fig. 4(e): frontiers from
// different probe budgets (different effective run lengths and random
// streams) contradict each other, unlike PF's incremental frontiers.
func TestInconsistencyAcrossBudgets(t *testing.T) {
	utopia := objective.Point{100, 1}
	nadir := objective.Point{2400, 24}
	maxInconsistency := 0.0
	for _, seeds := range [][2]int64{{1, 2}, {3, 4}, {5, 6}} {
		m := method()
		f30, err := m.Run(moo.Options{Points: 30, Seed: seeds[0]})
		if err != nil {
			t.Fatal(err)
		}
		f40, err := m.Run(moo.Options{Points: 40, Seed: seeds[1]})
		if err != nil {
			t.Fatal(err)
		}
		p30 := make([]objective.Point, len(f30))
		for i := range f30 {
			p30[i] = f30[i].F
		}
		p40 := make([]objective.Point, len(f40))
		for i := range f40 {
			p40[i] = f40[i].F
		}
		if c := metrics.Consistency(p30, p40, utopia, nadir); c > maxInconsistency {
			maxInconsistency = c
		}
	}
	if maxInconsistency == 0 {
		t.Fatal("expected some inconsistency across independent Evo runs")
	}
}

func TestDeterministicForFixedSeed(t *testing.T) {
	a, _ := method().Run(moo.Options{Points: 10, Seed: 7})
	b, _ := method().Run(moo.Options{Points: 10, Seed: 7})
	if len(a) != len(b) {
		t.Fatalf("same seed, different front sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].F[0] != b[i].F[0] || a[i].F[1] != b[i].F[1] {
			t.Fatal("same seed, different frontier")
		}
	}
}

func TestProgressAndTimeBudget(t *testing.T) {
	calls := 0
	start := time.Now()
	_, err := method().Run(moo.Options{Points: 100000, Seed: 8, TimeBudget: 50 * time.Millisecond,
		OnProgress: func(time.Duration, []objective.Solution) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("no progress callbacks")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("time budget ignored")
	}
}

func TestOddPopulationRoundedUp(t *testing.T) {
	m := &Method{Evaluator: paperEvaluator(), Pop: 7}
	if _, err := m.Run(moo.Options{Points: 2, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if m.Pop%2 != 0 {
		t.Fatalf("population not rounded to even: %d", m.Pop)
	}
}

func TestName(t *testing.T) {
	if method().Name() != "Evo" {
		t.Fatal("wrong name")
	}
}
