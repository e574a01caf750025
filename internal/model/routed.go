package model

import (
	"fmt"

	"repro/internal/linalg"
)

// Routed combines per-stage models into one pipeline objective over a
// stage-wise variable space (paper §VIII's pipeline-of-tasks direction): each
// component model reads its *own* sub-vector of the composite decision
// vector, and the composite objective is the weighted sum of the stage
// values, Σ wᵢ·Ψᵢ(x[Indexᵢ]). Identity routing (every row reads the whole
// vector) gives the plain weighted sum of models sharing one configuration. Index rows typically come from a composite space's
// StageDims, so shared (tied) variables feed every stage while per-stage
// blocks feed only their own model.
//
// The fused value+gradient contract is preserved block-wise: each stage's
// gradient is computed in its own sub-space and scatter-added into the
// composite gradient at the stage's dimensions (shared dimensions accumulate
// across stages, untouched dimensions stay zero). The batched contracts
// (BatchPredictor, BatchForwarder) gather each stage's column subset into a
// contiguous sub-matrix and run the stage model's own batched pass over it,
// so DNN stage models keep their GEMM path under routing. Stages are always
// accumulated in ascending order, making every path bit-identical to the
// scalar stage-by-stage sum.
type Routed struct {
	// D is the composite input dimensionality.
	D int
	// Models are the per-stage models.
	Models []Model
	// Index[i][j] is the composite dimension feeding model i's input j.
	Index [][]int
	// Weights scale the stage values; nil means all 1.
	Weights []float64
}

// NewRouted validates the routing table against the models and returns the
// combinator.
func NewRouted(d int, models []Model, index [][]int, weights []float64) (Routed, error) {
	if d <= 0 {
		return Routed{}, fmt.Errorf("model: routed dim %d", d)
	}
	if len(models) == 0 {
		return Routed{}, fmt.Errorf("model: routed needs at least one model")
	}
	if len(index) != len(models) {
		return Routed{}, fmt.Errorf("model: %d index rows for %d models", len(index), len(models))
	}
	if weights != nil && len(weights) != len(models) {
		return Routed{}, fmt.Errorf("model: %d weights for %d models", len(weights), len(models))
	}
	for i, m := range models {
		if m == nil {
			return Routed{}, fmt.Errorf("model: routed model %d is nil", i)
		}
		if m.Dim() != len(index[i]) {
			return Routed{}, fmt.Errorf("model: routed model %d has dim %d, index row has %d entries", i, m.Dim(), len(index[i]))
		}
		for j, dd := range index[i] {
			if dd < 0 || dd >= d {
				return Routed{}, fmt.Errorf("model: routed model %d input %d reads dimension %d of %d", i, j, dd, d)
			}
		}
	}
	return Routed{D: d, Models: models, Index: index, Weights: weights}, nil
}

// Dim implements Model.
func (r Routed) Dim() int { return r.D }

func (r Routed) weight(i int) float64 {
	if r.Weights == nil {
		return 1
	}
	return r.Weights[i]
}

// maxSubDim returns the widest stage sub-space, sizing shared scratch.
func (r Routed) maxSubDim() int {
	n := 0
	for _, row := range r.Index {
		if len(row) > n {
			n = len(row)
		}
	}
	return n
}

// gather copies x's routed dimensions for stage i into buf.
func (r Routed) gather(i int, x, buf []float64) []float64 {
	row := r.Index[i]
	sub := buf[:len(row)]
	for j, d := range row {
		sub[j] = x[d]
	}
	return sub
}

// Predict implements Model.
func (r Routed) Predict(x []float64) float64 {
	buf := make([]float64, r.maxSubDim())
	v := 0.0
	for i, m := range r.Models {
		v += r.weight(i) * m.Predict(r.gather(i, x, buf))
	}
	return v
}

// ValueGrad implements ValueGradienter: one fused pass per stage, assembled
// block-wise into the composite gradient.
func (r Routed) ValueGrad(x, grad []float64) (float64, []float64) {
	out := GradBuf(grad, r.D)
	for i := range out {
		out[i] = 0
	}
	n := r.maxSubDim()
	buf := make([]float64, n)
	gbuf := make([]float64, n)
	v := 0.0
	for i, m := range r.Models {
		row := r.Index[i]
		vi, gi := EnsureValueGrad(m).ValueGrad(r.gather(i, x, buf), gbuf[:len(row)])
		w := r.weight(i)
		v += w * vi
		for j, d := range row {
			out[d] += w * gi[j]
		}
	}
	return v, out
}

// PredictVar implements Uncertain assuming independent stage errors: means
// add, variances add scaled by squared weights.
func (r Routed) PredictVar(x []float64) (float64, float64) {
	buf := make([]float64, r.maxSubDim())
	mean, variance := 0.0, 0.0
	for i, m := range r.Models {
		sub := r.gather(i, x, buf)
		w := r.weight(i)
		if u, ok := m.(Uncertain); ok {
			mu, v := u.PredictVar(sub)
			mean += w * mu
			variance += w * w * v
		} else {
			mean += w * m.Predict(sub)
		}
	}
	return mean, variance
}

// gatherMatrix packs stage i's columns of X into the contiguous sub-matrix
// every stage model's batched pass consumes.
func (r Routed) gatherMatrix(i int, X *linalg.Matrix) *linalg.Matrix {
	row := r.Index[i]
	sub := linalg.NewMatrix(X.Rows, len(row))
	for rr := 0; rr < X.Rows; rr++ {
		src := X.Row(rr)
		dst := sub.Row(rr)
		for j, d := range row {
			dst[j] = src[d]
		}
	}
	return sub
}

// PredictBatch implements BatchPredictor: one batched pass per stage over its
// gathered sub-matrix, accumulated in stage order (bit-identical to per-row
// Predict).
func (r Routed) PredictBatch(X *linalg.Matrix, y []float64) {
	checkBatch(r, X, y)
	for i := range y {
		y[i] = 0
	}
	col := make([]float64, X.Rows)
	for i, m := range r.Models {
		PredictBatch(m, r.gatherMatrix(i, X), col)
		w := r.weight(i)
		for rr := range y {
			y[rr] += w * col[rr]
		}
	}
}

// routedGrad is the deferred backward continuation of ForwardBatch: it holds
// each stage's own continuation and scatter-adds the stage gradient blocks on
// demand.
type routedGrad struct {
	r     Routed
	rows  int
	grads []BatchGrad
}

func (g *routedGrad) Grad(G *linalg.Matrix) {
	for i := range G.Data {
		G.Data[i] = 0
	}
	for i, h := range g.grads {
		row := g.r.Index[i]
		sub := linalg.NewMatrix(g.rows, len(row))
		h.Grad(sub)
		w := g.r.weight(i)
		for rr := 0; rr < g.rows; rr++ {
			src := sub.Row(rr)
			dst := G.Row(rr)
			for j, d := range row {
				dst[d] += w * src[j]
			}
		}
	}
}

func (g *routedGrad) Done() {
	for _, h := range g.grads {
		h.Done()
	}
}

// ForwardBatch implements BatchForwarder: each stage's split batched pass
// runs over its gathered sub-matrix (DNN stages keep their deferred-backward
// GEMM path), and the returned continuation assembles the composite gradient
// block-wise only when asked.
func (r Routed) ForwardBatch(X *linalg.Matrix, y []float64) BatchGrad {
	checkBatch(r, X, y)
	for i := range y {
		y[i] = 0
	}
	col := make([]float64, X.Rows)
	cont := &routedGrad{r: r, rows: X.Rows, grads: make([]BatchGrad, len(r.Models))}
	for i, m := range r.Models {
		cont.grads[i] = ForwardBatch(m, r.gatherMatrix(i, X), col)
		w := r.weight(i)
		for rr := range y {
			y[rr] += w * col[rr]
		}
	}
	return cont
}

var (
	_ ValueGradienter = Routed{}
	_ Uncertain       = Routed{}
	_ BatchPredictor  = Routed{}
	_ BatchForwarder  = Routed{}
)
