package moo

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/model/analytic"
	"repro/internal/problem"
)

func TestMinimizeSingleQuadratic(t *testing.T) {
	m := model.Func{D: 2, F: func(x []float64) float64 {
		return (x[0]-0.3)*(x[0]-0.3) + (x[1]-0.7)*(x[1]-0.7)
	}}
	rng := rand.New(rand.NewSource(1))
	x, f := MinimizeSingle(m, 4, 200, rng)
	if f > 1e-3 {
		t.Fatalf("minimum value = %v, want ~0", f)
	}
	if math.Abs(x[0]-0.3) > 0.05 || math.Abs(x[1]-0.7) > 0.05 {
		t.Fatalf("minimizer = %v, want (0.3, 0.7)", x)
	}
}

func TestMinimizeSingleBoundary(t *testing.T) {
	// Minimum at the box corner.
	m := model.Func{D: 1, F: func(x []float64) float64 { return x[0] }}
	rng := rand.New(rand.NewSource(2))
	x, f := MinimizeSingle(m, 4, 200, rng)
	if x[0] > 0.01 || f > 0.01 {
		t.Fatalf("boundary minimum: x=%v f=%v, want ~0", x, f)
	}
}

func TestAnchors(t *testing.T) {
	lat, cost := analytic.PaperExample()
	ev := problem.NewEvaluator(problem.MustNew([]model.Model{lat, cost}, nil), problem.Options{})
	rng := rand.New(rand.NewSource(3))
	sols, utopia, nadir := Anchors(ev, 6, 200, rng)
	if len(sols) != 2 {
		t.Fatalf("anchors = %d, want 2", len(sols))
	}
	// Utopia ~ (100, 1), Nadir ~ (2400, 24).
	if math.Abs(utopia[0]-100) > 10 || math.Abs(utopia[1]-1) > 0.5 {
		t.Fatalf("utopia = %v", utopia)
	}
	if math.Abs(nadir[0]-2400) > 100 || math.Abs(nadir[1]-24) > 1 {
		t.Fatalf("nadir = %v", nadir)
	}
	if ev.Evals() == 0 {
		t.Fatal("anchor search must count evaluations")
	}
}

// TestSimplexWeights checks the lattice WS and NC share: exactly n weight
// vectors of k non-negative entries summing to one, the 2D sweep running
// from one axis to the other.
func TestSimplexWeights(t *testing.T) {
	for _, c := range []struct{ n, k int }{{5, 2}, {1, 2}, {10, 3}, {12, 3}, {20, 4}} {
		ws := SimplexWeights(c.n, c.k)
		if len(ws) != c.n {
			t.Fatalf("n=%d k=%d: %d weight vectors", c.n, c.k, len(ws))
		}
		for _, w := range ws {
			sum := 0.0
			for _, v := range w {
				if v < 0 || v > 1 {
					t.Fatalf("n=%d k=%d: weight %v leaves [0,1]", c.n, c.k, w)
				}
				sum += v
			}
			if len(w) != c.k || math.Abs(sum-1) > 1e-9 {
				t.Fatalf("n=%d k=%d: weight %v is not on the unit simplex", c.n, c.k, w)
			}
		}
	}
	if w := SimplexWeights(5, 2); w[0][0] != 0 || w[4][0] != 1 {
		t.Fatalf("2D sweep runs %v .. %v, want (0,1) .. (1,0)", w[0], w[4])
	}
}
