package model

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
)

// Batched model contracts: the matrix counterparts of Predict and ValueGrad.
// X stacks one configuration per row (n×Dim); values land in y (length n) and
// gradients in G (n×Dim, row r = ∂Predict/∂x at X row r). Implementations
// must produce, for every row, results bit-identical (under float equality)
// to the corresponding scalar call — the MOGD batched multi-start and the
// conformance suite rely on that equivalence.

// BatchPredictor is a Model that evaluates many configurations in one pass.
type BatchPredictor interface {
	Model
	// PredictBatch writes Predict(X.Row(r)) into y[r] for every row.
	PredictBatch(X *linalg.Matrix, y []float64)
}

func checkBatch(m Model, X *linalg.Matrix, y []float64) {
	if X.Cols != m.Dim() {
		panic(fmt.Sprintf("model: batch input has %d columns, model dim %d", X.Cols, m.Dim()))
	}
	if len(y) != X.Rows {
		panic(fmt.Sprintf("model: batch output length %d != %d rows", len(y), X.Rows))
	}
}

// PredictBatch evaluates m over every row of X, using the model's native
// batched pass when it has one and per-row Predict calls otherwise.
func PredictBatch(m Model, X *linalg.Matrix, y []float64) {
	if bp, ok := m.(BatchPredictor); ok {
		bp.PredictBatch(X, y)
		return
	}
	checkBatch(m, X, y)
	for r := 0; r < X.Rows; r++ {
		y[r] = m.Predict(X.Row(r))
	}
}

// BatchGrad is the backward continuation of a split batched pass (see
// BatchForwarder). Grad may be called at most once; Done must be called
// exactly once, after Grad or instead of it.
type BatchGrad interface {
	// Grad writes the per-row input gradients of the forward pass into G
	// (rows×Dim) through the retained activations.
	Grad(G *linalg.Matrix)
	// Done releases the pass's scratch back to its owner.
	Done()
}

// BatchForwarder is a Model whose batched fused pass can defer the backward
// half: callers that only sometimes need gradients (the MOGD loss skips every
// objective whose constraint is inactive) pay for the backward pass only when
// they ask for it. Values and gradients must match the scalar ValueGrad
// bit-for-bit.
type BatchForwarder interface {
	Model
	// ForwardBatch writes Predict(X.Row(r)) into y[r] and returns the
	// deferred backward continuation.
	ForwardBatch(X *linalg.Matrix, y []float64) BatchGrad
}

// eagerGrad is the fallback continuation for models without a split batched
// pass: gradients were computed eagerly at forward time (exactly what the
// scalar fused path does) and are copied out on demand. Handles are pooled
// with their gradient matrix and the numeric-gradient wrapper a model
// without ValueGrad runs through, and return to the pool on Done, so a
// steady-state fallback pass allocates nothing.
type eagerGrad struct {
	g  linalg.Matrix
	ng NumericGradient
}

var eagerGrads = sync.Pool{New: func() any { return new(eagerGrad) }}

func (e *eagerGrad) Grad(G *linalg.Matrix) { copy(G.Data, e.g.Data) }

func (e *eagerGrad) Done() {
	e.ng.M = nil // the pool must not keep the model alive
	eagerGrads.Put(e)
}

// ForwardBatch evaluates values for every row of X with a deferred gradient
// continuation, using the model's native split pass when it has one and an
// eager per-row fused fallback otherwise.
func ForwardBatch(m Model, X *linalg.Matrix, y []float64) BatchGrad {
	if bf, ok := m.(BatchForwarder); ok {
		return bf.ForwardBatch(X, y)
	}
	checkBatch(m, X, y)
	e := eagerGrads.Get().(*eagerGrad)
	n := X.Rows * X.Cols
	if cap(e.g.Data) < n {
		e.g.Data = make([]float64, n)
	}
	e.g = linalg.Matrix{Rows: X.Rows, Cols: X.Cols, Data: e.g.Data[:n]}
	// EnsureValueGrad's wrapper, held in the handle so it is not boxed anew.
	vg, ok := m.(ValueGradienter)
	if !ok {
		e.ng.M = m
		vg = &e.ng
	}
	for r := 0; r < X.Rows; r++ {
		y[r], _ = vg.ValueGrad(X.Row(r), e.g.Row(r))
	}
	return e
}

// negGrad flips the sign of the wrapped continuation's gradients.
type negGrad struct{ h BatchGrad }

func (g negGrad) Grad(G *linalg.Matrix) { g.h.Grad(G); linalg.Scale(-1, G.Data) }
func (g negGrad) Done()                 { g.h.Done() }

// ForwardBatch forwards the split batched pass through the sign flip.
func (n Negated) ForwardBatch(X *linalg.Matrix, y []float64) BatchGrad {
	h := ForwardBatch(n.M, X, y)
	linalg.Scale(-1, y)
	return negGrad{h: h}
}

// expGrad applies the chain-rule scale exp(v) per row; y already holds the
// exponentiated values, which are exactly the scale factors.
type expGrad struct {
	h BatchGrad
	y []float64
}

func (g expGrad) Grad(G *linalg.Matrix) {
	g.h.Grad(G)
	for r, ev := range g.y {
		linalg.Scale(ev, G.Row(r))
	}
}
func (g expGrad) Done() { g.h.Done() }

// ForwardBatch forwards the split batched pass through the exponential. The
// continuation reads the scale factors from y, so Grad must run before the
// caller overwrites y.
func (e Exp) ForwardBatch(X *linalg.Matrix, y []float64) BatchGrad {
	h := ForwardBatch(e.M, X, y)
	for r := range y {
		y[r] = math.Exp(y[r])
	}
	return expGrad{h: h, y: y}
}

// PredictBatch forwards the batched pass through the sign flip, so a negated
// DNN objective keeps its matrix path.
func (n Negated) PredictBatch(X *linalg.Matrix, y []float64) {
	PredictBatch(n.M, X, y)
	linalg.Scale(-1, y)
}

// PredictBatch forwards the batched pass through the exponential.
func (e Exp) PredictBatch(X *linalg.Matrix, y []float64) {
	PredictBatch(e.M, X, y)
	for r := range y {
		y[r] = math.Exp(y[r])
	}
}

var (
	_ BatchPredictor = Negated{}
	_ BatchForwarder = Negated{}
	_ BatchPredictor = Exp{}
	_ BatchForwarder = Exp{}
)
