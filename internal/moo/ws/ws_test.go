package ws

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

// newEvaluator builds a fresh evaluation seam over the models.
func newEvaluator(objs ...model.Model) *problem.Evaluator {
	return problem.NewEvaluator(problem.MustNew(objs, nil), problem.Options{})
}

func method() *Method {
	lat, cost := analytic.PaperExample2D()
	return &Method{Evaluator: newEvaluator(lat, cost), Starts: 4, Iters: 100}
}

func TestRunProducesNonDominatedSet(t *testing.T) {
	front, err := method().Run(moo.Options{Points: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) == 0 {
		t.Fatal("empty frontier")
	}
	for i := range front {
		for j := range front {
			if i != j && front[i].F.Dominates(front[j].F) {
				t.Fatal("dominated point in WS frontier")
			}
		}
	}
}

// TestPoorCoverage reproduces the paper's observation (Fig. 4(b)): on a
// non-convex (concave) Pareto frontier, every weighted sum is minimized at
// an endpoint, so WS collapses to a couple of points regardless of how many
// were requested.
func TestPoorCoverage(t *testing.T) {
	// Frontier {(t, 1−t²) : t ∈ [0,1]} is concave: interior points are
	// unreachable by any weight vector.
	f1 := model.Func{D: 1, F: func(x []float64) float64 { return x[0] }}
	f2 := model.Func{D: 1, F: func(x []float64) float64 { return 1 - x[0]*x[0] }}
	m := &Method{Evaluator: newEvaluator(f1, f2), Starts: 6, Iters: 150}
	front, err := m.Run(moo.Options{Points: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) > 3 {
		t.Fatalf("WS found %d points on a concave frontier; expected collapse to the endpoints", len(front))
	}
}

func TestAnchorsIncluded(t *testing.T) {
	front, err := method().Run(moo.Options{Points: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The per-objective minima must be represented: some point near
	// latency 100 and some point near cost 1.
	bestLat, bestCost := 1e18, 1e18
	for _, p := range front {
		if p.F[0] < bestLat {
			bestLat = p.F[0]
		}
		if p.F[1] < bestCost {
			bestCost = p.F[1]
		}
	}
	if bestLat > 110 || bestCost > 1.5 {
		t.Fatalf("anchor points missing: bestLat=%v bestCost=%v", bestLat, bestCost)
	}
}

func TestProgressCallback(t *testing.T) {
	calls := 0
	var last []objective.Solution
	_, err := method().Run(moo.Options{Points: 5, Seed: 4, OnProgress: func(el time.Duration, f []objective.Solution) {
		calls++
		last = f
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls < 5 || len(last) == 0 {
		t.Fatalf("progress calls = %d, last frontier = %d points", calls, len(last))
	}
}

func TestTimeBudget(t *testing.T) {
	start := time.Now()
	_, err := method().Run(moo.Options{Points: 10000, Seed: 5, TimeBudget: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("time budget ignored")
	}
}

// TestWeightVectors checks the scalarization weights Run sweeps: n vectors
// in 2D and at least n in 3D, each summing to 1.
func TestWeightVectors(t *testing.T) {
	w2 := moo.SimplexWeights(5, 2)
	if len(w2) != 5 {
		t.Fatalf("2D weights = %d", len(w2))
	}
	for _, w := range w2 {
		if len(w) != 2 || w[0]+w[1] < 0.999 || w[0]+w[1] > 1.001 {
			t.Fatalf("bad weight vector %v", w)
		}
	}
	w3 := moo.SimplexWeights(10, 3)
	if len(w3) < 10 {
		t.Fatalf("3D weights = %d, want >= 10", len(w3))
	}
	for _, w := range w3 {
		sum := w[0] + w[1] + w[2]
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("3D weight %v does not sum to 1", w)
		}
	}
}

func TestUncertaintyReduction(t *testing.T) {
	front, err := method().Run(moo.Options{Points: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]objective.Point, len(front))
	for i := range front {
		pts[i] = front[i].F
	}
	u := metrics.UncertainFraction(pts, objective.Point{100, 1}, objective.Point{2400, 24})
	if u > 0.9 {
		t.Fatalf("WS left %v uncertain; should reduce below 0.9", u)
	}
}

func TestName(t *testing.T) {
	if method().Name() != "WS" {
		t.Fatal("wrong name")
	}
}
