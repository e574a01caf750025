package nc

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

func method() *Method {
	lat, cost := analytic.PaperExample2D()
	ev := problem.NewEvaluator(problem.MustNew([]model.Model{lat, cost}, nil), problem.Options{})
	return &Method{Evaluator: ev, Starts: 4, Iters: 100}
}

func TestRunProducesNonDominatedSet(t *testing.T) {
	front, err := method().Run(moo.Options{Points: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) < 3 {
		t.Fatalf("NC frontier has %d points", len(front))
	}
	for i := range front {
		for j := range front {
			if i != j && front[i].F.Dominates(front[j].F) {
				t.Fatal("dominated point in NC frontier")
			}
		}
	}
}

// TestFewerPointsThanRequested checks the paper's §III observation: NC uses
// a preset point count but often returns fewer points than requested.
func TestFewerPointsThanRequested(t *testing.T) {
	front, err := method().Run(moo.Options{Points: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(front) > 20 {
		t.Fatalf("NC returned more points (%d) than requested+anchors", len(front))
	}
}

func TestBetterCoverageThanWS(t *testing.T) {
	// NC's hallmark vs WS: more even spread. Verify it reduces uncertainty
	// at least moderately.
	front, err := method().Run(moo.Options{Points: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]objective.Point, len(front))
	for i := range front {
		pts[i] = front[i].F
	}
	u := metrics.UncertainFraction(pts, objective.Point{100, 1}, objective.Point{2400, 24})
	if u > 0.85 {
		t.Fatalf("NC uncertainty %v too high", u)
	}
}

func TestProgressAndTimeBudget(t *testing.T) {
	calls := 0
	start := time.Now()
	_, err := method().Run(moo.Options{Points: 10000, Seed: 4, TimeBudget: 50 * time.Millisecond,
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

// TestPlaneWeights3D checks the utopia-plane combinations Run solves from
// in 3D: at least n of them, each summing to 1.
func TestPlaneWeights3D(t *testing.T) {
	ws := moo.SimplexWeights(12, 3)
	if len(ws) < 12 {
		t.Fatalf("3D plane weights = %d", len(ws))
	}
	for _, w := range ws {
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("weights %v do not sum to 1", w)
		}
	}
}

func TestName(t *testing.T) {
	if method().Name() != "NC" {
		t.Fatal("wrong name")
	}
}
