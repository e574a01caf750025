//go:build !race

// The race detector drops a share of sync.Pool puts on purpose, so these
// allocation counts hold only in a normal build.

package model

import (
	"testing"

	"repro/internal/linalg"
)

// TestNumericPathsAllocateNothing pins the pooled scratch of the numeric
// gradient (its probe vector) and of ForwardBatch's eager fallback (the
// handle and its gradient matrix): at steady state neither allocates.
func TestNumericPathsAllocateNothing(t *testing.T) {
	var f Model = Func{D: 4, F: func(x []float64) float64 { return x[0]*x[1] + x[2] - x[3]*x[3] }}
	x := []float64{0.2, 0.4, 0.6, 0.8}
	grad := make([]float64, 4)
	ng := NumericGradient{M: f}
	if a := testing.AllocsPerRun(100, func() { ng.ValueGrad(x, grad) }); a != 0 {
		t.Errorf("NumericGradient.ValueGrad allocates %.1f/op, want 0", a)
	}
	X := linalg.NewMatrixFrom(2, 4, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8})
	y := make([]float64, 2)
	G := linalg.NewMatrix(2, 4)
	pass := func() {
		h := ForwardBatch(f, X, y)
		h.Grad(G)
		h.Done()
	}
	if a := testing.AllocsPerRun(100, pass); a != 0 {
		t.Errorf("ForwardBatch over a Func allocates %.1f/op, want 0", a)
	}
}
