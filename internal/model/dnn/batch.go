package dnn

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/model"
)

// Every pass of the Net runs here: one input (Predict, ValueGrad), a
// multi-start cohort (PredictBatch, ForwardBatch), a training mini-batch
// (step) or a set of MC-dropout samples (PredictVar) moves through each layer
// as one GEMM. Bit-parity with a per-sample scalar loop (the references in
// ref_test.go) is structural, not approximate — the kernels in internal/linalg
// accumulate every output element in ascending-k order starting from the
// preloaded bias (forward) or a buffer cleared to +0 (backward), the exact
// summation order of that loop, so row r of a batch equals the scalar result
// for that input bit for bit. The kernels skip the products of zero
// activations (ReLU outputs that did not fire, ±0 inputs) and of zero deltas.
// The scalar backward skips zero deltas too; the scalar forward adds the zero
// activations' products, and a ±0 addend cannot change the bits of a sum that
// starts at a bias or at +0, since such a sum is never −0 (the linalg package
// comment states the contract).

// batchScratch holds the per-call matrices of one pass. All backing slices
// grow to the largest batch seen and are reused via the Net's pool, so
// steady-state inference allocates nothing, one row or many.
type batchScratch struct {
	acts []*linalg.Matrix // per layer: n×Out post-activations
	wv   []*linalg.Matrix // per layer: Out×In view of the layer weights
	dA   *linalg.Matrix   // ping-pong delta buffers, n×(widest layer)
	dB   *linalg.Matrix
	// net and rows make the scratch double as the model.BatchGrad handle of
	// a split ForwardBatch pass (see below) without a separate allocation.
	net  *Net
	rows int
}

func (n *Net) newBatchScratch() *batchScratch {
	sc := &batchScratch{
		net:  n,
		acts: make([]*linalg.Matrix, len(n.Layers)),
		wv:   make([]*linalg.Matrix, len(n.Layers)),
		dA:   &linalg.Matrix{},
		dB:   &linalg.Matrix{},
	}
	for li := range n.Layers {
		sc.acts[li] = &linalg.Matrix{}
		sc.wv[li] = &linalg.Matrix{}
	}
	return sc
}

// view reshapes m to r×c over its (grown-as-needed) backing slice.
func view(m *linalg.Matrix, r, c int) *linalg.Matrix {
	if need := r * c; cap(m.Data) < need {
		m.Data = make([]float64, need)
	}
	m.Rows, m.Cols, m.Data = r, c, m.Data[:r*c]
	return m
}

func (n *Net) getBatchScratch() *batchScratch { return n.pool.Get().(*batchScratch) }

func (n *Net) putBatchScratch(sc *batchScratch) { n.pool.Put(sc) }

// forwardBatch runs the network over all rows of X, returning the n×1 matrix
// of standardized outputs (a view into sc's last activation buffer).
func (n *Net) forwardBatch(X *linalg.Matrix, sc *batchScratch) *linalg.Matrix {
	a := X
	for li, l := range n.Layers {
		z := view(sc.acts[li], X.Rows, l.Out)
		n.dense(li, a, z, sc)
		a = z
	}
	return a
}

// dense runs layer li over the rows of a into z: the bias preloaded into
// every row, one GemmNT, then the ReLU.
func (n *Net) dense(li int, a, z *linalg.Matrix, sc *batchScratch) {
	l := n.Layers[li]
	for r := 0; r < z.Rows; r++ {
		copy(z.Row(r), l.B)
	}
	w := sc.wv[li]
	w.Rows, w.Cols, w.Data = l.Out, l.In, l.W
	linalg.GemmNT(a, w, z)
	if l.ReLU {
		for i, v := range z.Data {
			if v < 0 {
				z.Data[i] = 0
			}
		}
	}
}

// inputGradBatch backprops ∂Ψ/∂x for every row through sc's stored
// activations (forwardBatch over the same X must have just run on sc),
// writing raw-scale gradients into G (n×InDim).
func (n *Net) inputGradBatch(sc *batchScratch, rows int, G *linalg.Matrix) {
	last := len(n.Layers) - 1
	cur := view(sc.dA, rows, n.Layers[last].Out)
	for i := range cur.Data {
		cur.Data[i] = n.YStd
	}
	nxt := sc.dB
	for li := last; li >= 0; li-- {
		l := n.Layers[li]
		if l.ReLU {
			post := sc.acts[li]
			for i, v := range post.Data {
				if v <= 0 {
					cur.Data[i] = 0
				}
			}
		}
		dst := view(nxt, rows, l.In)
		if li == 0 {
			dst = G
		}
		for i := range dst.Data {
			dst.Data[i] = 0
		}
		linalg.GemmNN(cur, sc.wv[li], dst)
		if li > 0 {
			cur, nxt = dst, cur
		}
	}
}

// PredictBatch implements model.BatchPredictor: every row of X through one
// GEMM per layer, bit-identical per row to Predict. Safe for concurrent use.
func (n *Net) PredictBatch(X *linalg.Matrix, y []float64) {
	n.checkBatchShapes(X, y)
	if X.Rows == 0 {
		return
	}
	sc := n.getBatchScratch()
	out := n.forwardBatch(X, sc)
	for r := 0; r < X.Rows; r++ {
		y[r] = out.Data[r]*n.YStd + n.YMean
	}
	n.putBatchScratch(sc)
}

// ForwardBatch implements model.BatchForwarder: the forward half of the
// batched fused pass, with the backward half deferred behind the returned
// continuation. The scratch (holding the retained activations) is the handle,
// so the split pass allocates nothing at steady state. Row r's value and
// gradient are bit-identical to ValueGrad at X row r.
func (n *Net) ForwardBatch(X *linalg.Matrix, y []float64) model.BatchGrad {
	n.checkBatchShapes(X, y)
	sc := n.getBatchScratch()
	sc.rows = X.Rows
	if X.Rows > 0 {
		out := n.forwardBatch(X, sc)
		for r := 0; r < X.Rows; r++ {
			y[r] = out.Data[r]*n.YStd + n.YMean
		}
	}
	return sc
}

// Grad implements model.BatchGrad: backprop through the activations retained
// by ForwardBatch.
func (sc *batchScratch) Grad(G *linalg.Matrix) {
	n := sc.net
	if G.Rows != sc.rows || G.Cols != n.InDim {
		panic(fmt.Sprintf("dnn: batch gradient is %dx%d, want %dx%d", G.Rows, G.Cols, sc.rows, n.InDim))
	}
	if sc.rows > 0 {
		n.inputGradBatch(sc, sc.rows, G)
	}
}

// Done implements model.BatchGrad, releasing the scratch to the pool.
func (sc *batchScratch) Done() { sc.net.putBatchScratch(sc) }

func (n *Net) checkBatchShapes(X *linalg.Matrix, y []float64) {
	if X.Cols != n.InDim {
		panic(fmt.Sprintf("dnn: batch input has %d columns, want %d", X.Cols, n.InDim))
	}
	if len(y) != X.Rows {
		panic(fmt.Sprintf("dnn: batch output length %d != %d rows", len(y), X.Rows))
	}
}

var (
	_ model.BatchPredictor = (*Net)(nil)
	_ model.BatchForwarder = (*Net)(nil)
)
