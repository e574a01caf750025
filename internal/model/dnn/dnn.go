// Package dnn implements the learned deep-neural-network performance models
// of the paper (§V "Model Server": multi-layer perceptrons with ReLU
// activations trained by Adam with L2 regularization, after [38]).
//
// The implementation is self-contained: forward pass, backpropagation with
// respect to both weights (for training) and inputs (the gradient the MOGD
// solver consumes), Adam updates, mini-batching, incremental fine-tuning of a
// trained network in memory, and Monte-Carlo-dropout predictive uncertainty
// (the paper's Bayesian approximation for DNNs [9]). A Net draws its dropout
// masks once, so its variance, like its mean, is a function of x alone. The
// paper's model server also checkpoints the weights; here trained networks
// live in memory only, so a Net has no serialized form.
//
// Every pass runs on the GEMM kernels of internal/linalg, one GEMM per
// layer: mini-batch training, batched inference, the MC-dropout samples, and
// single-point Predict and ValueGrad as one-row passes. Each is bit-identical
// to a per-sample scalar loop (see batch.go).
package dnn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/linalg"
	"repro/internal/model"
)

// Config controls network shape and training.
type Config struct {
	Hidden []int // hidden layer widths; paper's largest model is 4×128
	Epochs int   // training epochs (default 200)
	Batch  int   // mini-batch size (default 32)
	Seed   int64 // rng seed for init, shuffling and the MC-dropout masks
}

// Training constants: the Adam learning rate and the L2 weight decay.
const (
	lr = 1e-3
	l2 = 1e-4
)

// MC-dropout constants: the rate at which PredictVar drops hidden units and
// its number of samples.
const (
	dropout   = 0.05
	mcSamples = 16
)

func (c *Config) defaults() {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{64, 64}
	}
	if c.Epochs == 0 {
		c.Epochs = 200
	}
	if c.Batch == 0 {
		c.Batch = 32
	}
}

// layer is a dense layer y = W·x + b with optional ReLU.
type layer struct {
	In, Out int
	W       []float64 // Out×In, row-major
	B       []float64 // Out
	ReLU    bool
	// Adam state (training only).
	mW, vW, mB, vB []float64
}

// Net is a feed-forward regression network Ψ(x): R^D → R.
type Net struct {
	InDim  int
	Cfg    Config
	Layers []*layer
	// Target standardization learned during Fit.
	YMean, YStd float64
	adamT       int
	// mask holds PredictVar's dropout multipliers, drawn once by New: row t
	// is sample t's 1/keep or 0 per hidden unit, layer by layer.
	mask *linalg.Matrix
	// pool recycles pass scratch (see batch.go) between calls so every
	// inference path (Predict, ValueGrad, PredictBatch, ForwardBatch,
	// PredictVar) runs allocation-free after warm-up. It is per-Net (buffer
	// shapes depend on the layer widths) and makes those paths safe for
	// concurrent callers.
	pool *sync.Pool
}

// New creates a network with Glorot-uniform initialization, then draws the
// MC-dropout masks from the same RNG, in the order (sample, layer, unit).
func New(inDim int, cfg Config) *Net {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Net{InDim: inDim, Cfg: cfg, YStd: 1}
	sizes := append([]int{inDim}, cfg.Hidden...)
	sizes = append(sizes, 1)
	for i := 0; i+1 < len(sizes); i++ {
		in, out := sizes[i], sizes[i+1]
		l := &layer{In: in, Out: out, ReLU: i+2 < len(sizes)}
		l.W = make([]float64, in*out)
		l.B = make([]float64, out)
		limit := math.Sqrt(6.0 / float64(in+out))
		for j := range l.W {
			l.W[j] = (2*rng.Float64() - 1) * limit
		}
		l.mW = make([]float64, len(l.W))
		l.vW = make([]float64, len(l.W))
		l.mB = make([]float64, len(l.B))
		l.vB = make([]float64, len(l.B))
		n.Layers = append(n.Layers, l)
	}
	units := 0
	for _, h := range cfg.Hidden {
		units += h
	}
	const keep = 1 - dropout
	n.mask = linalg.NewMatrix(mcSamples, units)
	for i := range n.mask.Data {
		if rng.Float64() < keep {
			n.mask.Data[i] = 1 / keep
		}
	}
	n.pool = &sync.Pool{New: func() interface{} { return n.newBatchScratch() }}
	return n
}

// Dim implements model.Model.
func (n *Net) Dim() int { return n.InDim }

// Predict implements model.Model: x moves through forwardBatch as a one-row
// matrix. Safe for concurrent use; allocation-free after pool warm-up.
func (n *Net) Predict(x []float64) float64 {
	if len(x) != n.InDim {
		panic(fmt.Sprintf("dnn: input length %d != %d", len(x), n.InDim))
	}
	sc := n.getBatchScratch()
	in := linalg.Matrix{Rows: 1, Cols: n.InDim, Data: x}
	y := n.forwardBatch(&in, sc).Data[0]
	n.putBatchScratch(sc)
	return y*n.YStd + n.YMean
}

// ValueGrad implements model.ValueGradienter: the analytic ∂Ψ/∂x by
// inputGradBatch through the activations of the one-row forward pass that
// also yields the value. Safe for concurrent use; allocation-free when grad
// has length Dim().
func (n *Net) ValueGrad(x, grad []float64) (float64, []float64) {
	if len(x) != n.InDim {
		panic(fmt.Sprintf("dnn: input length %d != %d", len(x), n.InDim))
	}
	out := model.GradBuf(grad, n.InDim)
	sc := n.getBatchScratch()
	in := linalg.Matrix{Rows: 1, Cols: n.InDim, Data: x}
	y := n.forwardBatch(&in, sc).Data[0]
	n.inputGradBatch(sc, 1, &linalg.Matrix{Rows: 1, Cols: n.InDim, Data: out})
	n.putBatchScratch(sc)
	return y*n.YStd + n.YMean, out
}

// PredictVar implements model.Uncertain with MC dropout: mcSamples forward
// passes that drop hidden units at rate dropout, under the masks New drew.
// Every call reuses those masks (common random numbers), so the result is a
// function of x alone and smooth in x. The first layer precedes every mask,
// so it runs once; the samples then move through each later layer as one
// GEMM. Each sample's output is bit-identical to a scalar forward pass under
// its masks. Safe for concurrent use; allocation-free after pool warm-up.
func (n *Net) PredictVar(x []float64) (mean, variance float64) {
	if len(x) != n.InDim {
		panic(fmt.Sprintf("dnn: input length %d != %d", len(x), n.InDim))
	}
	sc := n.getBatchScratch()
	in := linalg.Matrix{Rows: 1, Cols: n.InDim, Data: x}
	first := view(sc.dA, 1, n.Layers[0].Out)
	n.dense(0, &in, first, sc)
	a := view(sc.acts[0], mcSamples, n.Layers[0].Out)
	for t := 0; t < mcSamples; t++ {
		copy(a.Row(t), first.Data)
	}
	off := 0
	for li, l := range n.Layers {
		if li > 0 {
			z := view(sc.acts[li], mcSamples, l.Out)
			n.dense(li, a, z, sc)
			a = z
		}
		if l.ReLU {
			for t := 0; t < mcSamples; t++ {
				z, m := a.Row(t), n.mask.Row(t)[off:off+l.Out]
				for o := range z {
					z[o] *= m[o]
				}
			}
			off += l.Out
		}
	}
	sum, sum2 := 0.0, 0.0
	for _, out := range a.Data { // a is mcSamples×1: one output per sample
		y := out*n.YStd + n.YMean
		sum += y
		sum2 += y * y
	}
	n.putBatchScratch(sc)
	mean = sum / mcSamples
	variance = sum2/mcSamples - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// Fit trains the network on (X, y) from its current weights; calling Fit on
// a freshly constructed Net is full training, calling it again with new data
// is the paper's incremental fine-tuning of the latest weights. It
// returns the final epoch's mean squared error on standardized targets.
func (n *Net) Fit(X [][]float64, y []float64) float64 {
	if len(X) != len(y) || len(X) == 0 {
		panic("dnn: Fit requires equal-length non-empty X and y")
	}
	for _, x := range X {
		if len(x) != n.InDim {
			panic(fmt.Sprintf("dnn: input length %d != %d", len(x), n.InDim))
		}
	}
	// (Re)standardize targets on first fit only so incremental updates keep
	// the output scale stable.
	if n.adamT == 0 {
		m, s := meanStd(y)
		if s < 1e-12 {
			s = 1
		}
		n.YMean, n.YStd = m, s
	}
	ys := make([]float64, len(y))
	for i, v := range y {
		ys[i] = (v - n.YMean) / n.YStd
	}
	rng := rand.New(rand.NewSource(n.Cfg.Seed + 1))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	ts := n.newTrainScratch()
	defer n.putBatchScratch(ts.batchScratch)
	var lastMSE float64
	for epoch := 0; epoch < n.Cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		sse := 0.0
		for start := 0; start < len(idx); start += n.Cfg.Batch {
			end := start + n.Cfg.Batch
			if end > len(idx) {
				end = len(idx)
			}
			sse += n.step(X, ys, idx[start:end], ts)
		}
		lastMSE = sse / float64(len(idx))
	}
	return lastMSE
}

// trainScratch holds one Fit's mini-batch buffers: a pooled batch scratch for
// the forward activations and the delta ping-pong, the packed batch rows,
// the transposed deltas the weight-gradient GEMM reads, and each layer's
// gradients.
type trainScratch struct {
	*batchScratch
	x, dT linalg.Matrix
	gW    []linalg.Matrix // per layer: Out×In
	gB    [][]float64     // per layer: Out
}

func (n *Net) newTrainScratch() *trainScratch {
	ts := &trainScratch{
		batchScratch: n.getBatchScratch(),
		gW:           make([]linalg.Matrix, len(n.Layers)),
		gB:           make([][]float64, len(n.Layers)),
	}
	for li, l := range n.Layers {
		ts.gW[li] = linalg.Matrix{Rows: l.Out, Cols: l.In, Data: make([]float64, l.Out*l.In)}
		ts.gB[li] = make([]float64, l.Out)
	}
	return ts
}

// transposeInto writes mᵀ into dst, growing dst's backing slice as needed.
func transposeInto(dst, m *linalg.Matrix) *linalg.Matrix {
	t := view(dst, m.Cols, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for c, v := range m.Row(r) {
			t.Data[c*m.Rows+r] = v
		}
	}
	return t
}

// step performs one Adam update on a mini-batch and returns the batch SSE.
// The batch moves through each layer as one GEMM, and every sum keeps the
// order of a per-sample loop: SSE and bias gradients add the samples in batch
// order, and the weight-gradient GEMM (the transposed deltas times the layer
// inputs) runs its k index over the samples, ascending from a buffer cleared
// to +0. Like that loop, the kernels skip the products of zero deltas.
func (n *Net) step(X [][]float64, ys []float64, batch []int, ts *trainScratch) float64 {
	b := len(batch)
	xb := view(&ts.x, b, n.InDim)
	for r, i := range batch {
		copy(xb.Row(r), X[i])
	}
	out := n.forwardBatch(xb, ts.batchScratch)
	cur, nxt := view(ts.dA, b, 1), ts.dB
	sse := 0.0
	for r, i := range batch {
		err := out.Data[r] - ys[i]
		sse += err * err
		cur.Data[r] = 2 * err / float64(b)
	}
	for li := len(n.Layers) - 1; li >= 0; li-- {
		l := n.Layers[li]
		if l.ReLU {
			for i, v := range ts.acts[li].Data {
				if v <= 0 {
					cur.Data[i] = 0
				}
			}
		}
		gB := ts.gB[li]
		clear(gB)
		for r := 0; r < b; r++ {
			for o, d := range cur.Row(r) {
				gB[o] += d
			}
		}
		in := xb
		if li > 0 {
			in = ts.acts[li-1]
		}
		gW := &ts.gW[li]
		clear(gW.Data)
		linalg.GemmNN(transposeInto(&ts.dT, cur), in, gW)
		// The input layer's deltas feed nothing, so they are not computed.
		if li > 0 {
			d := view(nxt, b, l.In)
			clear(d.Data)
			linalg.GemmNN(cur, ts.wv[li], d)
			cur, nxt = d, cur
		}
	}
	// Adam update with decoupled L2.
	n.adamT++
	t := float64(n.adamT)
	const b1, b2, eps = 0.9, 0.999, 1e-8
	bc1 := 1 - math.Pow(b1, t)
	bc2 := 1 - math.Pow(b2, t)
	for li, l := range n.Layers {
		gW, gB := ts.gW[li].Data, ts.gB[li]
		for j := range l.W {
			g := gW[j] + l2*l.W[j]
			l.mW[j] = b1*l.mW[j] + (1-b1)*g
			l.vW[j] = b2*l.vW[j] + (1-b2)*g*g
			l.W[j] -= lr * (l.mW[j] / bc1) / (math.Sqrt(l.vW[j]/bc2) + eps)
		}
		for j := range l.B {
			g := gB[j]
			l.mB[j] = b1*l.mB[j] + (1-b1)*g
			l.vB[j] = b2*l.vB[j] + (1-b2)*g*g
			l.B[j] -= lr * (l.mB[j] / bc1) / (math.Sqrt(l.vB[j]/bc2) + eps)
		}
	}
	return sse
}

func meanStd(v []float64) (float64, float64) {
	m := 0.0
	for _, x := range v {
		m += x
	}
	m /= float64(len(v))
	s := 0.0
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return m, math.Sqrt(s / float64(len(v)))
}

var (
	_ model.ValueGradienter = (*Net)(nil)
	_ model.Uncertain       = (*Net)(nil)
)
