package dnn

import (
	"fmt"
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
// of the batched passes — including a batch of size 1 — equals both the
// one-row Predict/ValueGrad and the scalar references bit for bit.
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
			want, wantG := refValueGrad(n, X.Row(r))
			v, g := n.ValueGrad(X.Row(r), grad)
			what := fmt.Sprintf("rows=%d row %d", rows, r)
			sameBits(t, what+" (split, PredictBatch, ValueGrad) values", []float64{y[r], yp[r], v}, []float64{want, want, want})
			sameBits(t, what+" split gradient", G.Row(r), wantG)
			sameBits(t, what+" ValueGrad gradient", g, wantG)
		}
	}
}

// TestBatchFallbacksAndWrappers checks the model-package batch helpers: the
// generic per-row fallback, and the Negated/Exp forwarding paths staying
// bit-identical to their scalar counterparts, both over the Net itself and
// over the scalar references (refNet).
func TestBatchFallbacksAndWrappers(t *testing.T) {
	const dim = 5
	n := trainedNet(t, dim)
	rng := rand.New(rand.NewSource(11))
	X := randBatch(rng, 7, dim)

	check := func(name string, m, ref model.Model) {
		t.Helper()
		y := make([]float64, X.Rows)
		G := linalg.NewMatrix(X.Rows, dim)
		splitPass(m, X, y, G)
		yp := make([]float64, X.Rows)
		model.PredictBatch(m, X, yp)
		vg, refVG := model.EnsureValueGrad(m), model.EnsureValueGrad(ref)
		for r := 0; r < X.Rows; r++ {
			v, g := vg.ValueGrad(X.Row(r), nil)
			rv, rg := refVG.ValueGrad(X.Row(r), nil)
			what := fmt.Sprintf("%s row %d", name, r)
			sameBits(t, what+" (batch, scalar, reference) values", []float64{y[r], v, rv}, []float64{rv, rv, rv})
			sameBits(t, what+" batch gradient", G.Row(r), rg)
			sameBits(t, what+" scalar gradient", g, rg)
			p, rp := m.Predict(X.Row(r)), ref.Predict(X.Row(r))
			sameBits(t, what+" (PredictBatch, Predict) values", []float64{yp[r], p}, []float64{rp, rp})
		}
	}

	check("dnn", n, refNet{n})
	check("negated-dnn", model.Negated{M: n}, model.Negated{M: refNet{n}})
	check("exp-dnn", model.Exp{M: n}, model.Exp{M: refNet{n}})
	// A model with no native batch path exercises the per-row fallback.
	f := model.Func{D: dim, F: func(x []float64) float64 {
		s := 0.0
		for _, v := range x {
			s += v * v
		}
		return s
	}}
	check("func-fallback", f, f)
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

// BenchmarkValueGradScalarLoop is the same workload as eight one-row
// ValueGrad passes, kept as the batching-speedup reference.
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
