package dnn

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/model"
)

func trainedNet(t testing.TB, dim int) *Net {
	t.Helper()
	n := New(dim, Config{Hidden: []int{64, 64}, Epochs: 3, Seed: 9})
	rng := rand.New(rand.NewSource(3))
	X := make([][]float64, 64)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = make([]float64, dim)
		s := 0.0
		for j := range X[i] {
			X[i][j] = rng.Float64()
			s += X[i][j]
		}
		y[i] = s*s + rng.NormFloat64()*0.01
	}
	n.Fit(X, y)
	return n
}

func randBatch(rng *rand.Rand, rows, dim int) *linalg.Matrix {
	X := linalg.NewMatrix(rows, dim)
	for i := range X.Data {
		X.Data[i] = rng.Float64()
	}
	return X
}

// splitPass runs the batched pass the way MOGD does: values from
// ForwardBatch, then gradients from the deferred Grad.
func splitPass(m model.Model, X *linalg.Matrix, y []float64, G *linalg.Matrix) {
	h := model.ForwardBatch(m, X, y)
	h.Grad(G)
	h.Done()
}

// TestBatchBitIdentical asserts the acceptance criterion directly: every row
// of the batched passes — including a batch of size 1 — equals the scalar
// Predict/ValueGrad bit-for-bit under float equality.
func TestBatchBitIdentical(t *testing.T) {
	const dim = 12
	n := trainedNet(t, dim)
	rng := rand.New(rand.NewSource(5))
	for _, rows := range []int{1, 2, 3, 8, 9, 33} {
		X := randBatch(rng, rows, dim)
		y := make([]float64, rows)
		G := linalg.NewMatrix(rows, dim)
		splitPass(n, X, y, G)
		yp := make([]float64, rows)
		n.PredictBatch(X, yp)
		grad := make([]float64, dim)
		for r := 0; r < rows; r++ {
			v, g := n.ValueGrad(X.Row(r), grad)
			if y[r] != v || yp[r] != v {
				t.Fatalf("rows=%d row %d: batch value %v / %v, scalar %v", rows, r, y[r], yp[r], v)
			}
			for j := 0; j < dim; j++ {
				if G.At(r, j) != g[j] {
					t.Fatalf("rows=%d row %d: batch grad[%d]=%v, scalar %v", rows, r, j, G.At(r, j), g[j])
				}
			}
		}
	}
}

// TestBatchFallbacksAndWrappers checks the model-package batch helpers: the
// generic per-row fallback, and the Negated/Exp forwarding paths staying
// bit-identical to their scalar counterparts.
func TestBatchFallbacksAndWrappers(t *testing.T) {
	const dim = 5
	n := trainedNet(t, dim)
	rng := rand.New(rand.NewSource(11))
	X := randBatch(rng, 7, dim)

	check := func(name string, m model.Model) {
		t.Helper()
		y := make([]float64, X.Rows)
		G := linalg.NewMatrix(X.Rows, dim)
		splitPass(m, X, y, G)
		vg := model.EnsureValueGrad(m)
		for r := 0; r < X.Rows; r++ {
			v, g := vg.ValueGrad(X.Row(r), nil)
			if y[r] != v {
				t.Fatalf("%s row %d: batch value %v, scalar %v", name, r, y[r], v)
			}
			for j := range g {
				if G.At(r, j) != g[j] {
					t.Fatalf("%s row %d grad[%d]: batch %v, scalar %v", name, r, j, G.At(r, j), g[j])
				}
			}
		}
		yp := make([]float64, X.Rows)
		model.PredictBatch(m, X, yp)
		for r := 0; r < X.Rows; r++ {
			if want := m.Predict(X.Row(r)); yp[r] != want {
				t.Fatalf("%s row %d: PredictBatch %v, scalar %v", name, r, yp[r], want)
			}
		}
	}

	check("dnn", n)
	check("negated-dnn", model.Negated{M: n})
	check("exp-dnn", model.Exp{M: n})
	// A model with no native batch path exercises the per-row fallback.
	check("func-fallback", model.Func{D: dim, F: func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += v * v
		}
		return s
	}})
}

func TestBatchShapeGuards(t *testing.T) {
	n := trainedNet(t, 4)
	X := linalg.NewMatrix(3, 4)
	for name, fn := range map[string]func(){
		"cols": func() { n.PredictBatch(linalg.NewMatrix(3, 5), make([]float64, 3)) },
		"ylen": func() { n.PredictBatch(X, make([]float64, 2)) },
		"gdim": func() {
			h := n.ForwardBatch(X, make([]float64, 3))
			defer h.Done()
			h.Grad(linalg.NewMatrix(3, 3))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	// Empty batch is a no-op, not a panic.
	splitPass(n, linalg.NewMatrix(0, 4), nil, linalg.NewMatrix(0, 4))
}

// BenchmarkValueGradBatch measures the MOGD hot shape — 8 starts through the
// default 2×64 network — per split batched pass (ForwardBatch, Grad, Done),
// the sequence MOGD runs for each objective it differentiates.
func BenchmarkValueGradBatch(b *testing.B) {
	const dim, rows = 12, 8
	n := trainedNet(b, dim)
	rng := rand.New(rand.NewSource(2))
	X := randBatch(rng, rows, dim)
	y := make([]float64, rows)
	G := linalg.NewMatrix(rows, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := n.ForwardBatch(X, y)
		h.Grad(G)
		h.Done()
	}
}

// BenchmarkValueGradScalarLoop is the same workload through the per-point
// scalar path, kept as the batching-speedup reference.
func BenchmarkValueGradScalarLoop(b *testing.B) {
	const dim, rows = 12, 8
	n := trainedNet(b, dim)
	rng := rand.New(rand.NewSource(2))
	X := randBatch(rng, rows, dim)
	y := make([]float64, rows)
	G := linalg.NewMatrix(rows, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < rows; r++ {
			y[r], _ = n.ValueGrad(X.Row(r), G.Row(r))
		}
	}
}
