package dnn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/linalg"
)

// The scalar forward pass and input-gradient backprop, and the per-sample
// training step and MC-dropout loop built on them, kept as references: the
// GEMM paths (Predict, ValueGrad, the batched passes, step and PredictVar)
// must reproduce them bit for bit.

// refForward is the scalar forward pass over acts; a non-nil mask applies its
// keep/drop multipliers to the ReLU layers' units (nil rows elsewhere).
func refForward(n *Net, x []float64, acts, mask [][]float64) float64 {
	a := x
	for li, l := range n.Layers {
		z := acts[li]
		for o := 0; o < l.Out; o++ {
			s := l.B[o]
			row := l.W[o*l.In : (o+1)*l.In]
			for i, v := range a {
				s += row[i] * v
			}
			if l.ReLU && s < 0 {
				s = 0
			}
			z[o] = s
		}
		if mask != nil && l.ReLU {
			m := mask[li]
			for o := range z {
				z[o] *= m[o]
			}
		}
		a = z
	}
	return a[0]
}

// refInputGrad backprops ∂Ψ/∂x through acts, the activations refForward
// (no mask) just stored for the same x, writing the raw-scale gradient into
// grad.
func refInputGrad(n *Net, acts [][]float64, grad []float64) {
	maxW := n.InDim
	for _, l := range n.Layers {
		if l.Out > maxW {
			maxW = l.Out
		}
	}
	// cur holds the delta over the current layer's outputs; nxt receives the
	// delta over its inputs (ping-pong buffers sized to the widest layer).
	cur, nxt := make([]float64, maxW), make([]float64, maxW)
	cur[0] = n.YStd
	for li := len(n.Layers) - 1; li >= 0; li-- {
		l := n.Layers[li]
		post := acts[li]
		// Backprop through ReLU: zero gradient where the unit was inactive.
		if l.ReLU {
			for o := 0; o < l.Out; o++ {
				if post[o] <= 0 {
					cur[o] = 0
				}
			}
		}
		dst := nxt
		if li == 0 {
			dst = grad
		}
		for i := 0; i < l.In; i++ {
			dst[i] = 0
		}
		for o := 0; o < l.Out; o++ {
			d := cur[o]
			if d == 0 {
				continue
			}
			row := l.W[o*l.In : (o+1)*l.In]
			for i, w := range row {
				dst[i] += d * w
			}
		}
		cur, nxt = dst, cur
	}
}

// refValueGrad is Predict's value and ValueGrad's gradient through the
// scalar references.
func refValueGrad(n *Net, x []float64) (float64, []float64) {
	acts := refActs(n)
	y := refForward(n, x, acts, nil)
	grad := make([]float64, n.InDim)
	refInputGrad(n, acts, grad)
	return y*n.YStd + n.YMean, grad
}

// refNet serves a Net through the scalar references, with no batch path of
// its own, so the model package's wrappers and per-row fallbacks run on the
// reference arithmetic.
type refNet struct{ n *Net }

func (r refNet) Dim() int { return r.n.InDim }

func (r refNet) Predict(x []float64) float64 {
	v, _ := refValueGrad(r.n, x)
	return v
}

func (r refNet) ValueGrad(x, _ []float64) (float64, []float64) { return refValueGrad(r.n, x) }

func refActs(n *Net) [][]float64 {
	acts := make([][]float64, len(n.Layers))
	for li, l := range n.Layers {
		acts[li] = make([]float64, l.Out)
	}
	return acts
}

// refFit is Fit over refStep.
func refFit(n *Net, X [][]float64, y []float64) float64 {
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
	var lastMSE float64
	for epoch := 0; epoch < n.Cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		sse := 0.0
		for start := 0; start < len(idx); start += n.Cfg.Batch {
			end := start + n.Cfg.Batch
			if end > len(idx) {
				end = len(idx)
			}
			sse += refStep(n, X, ys, idx[start:end])
		}
		lastMSE = sse / float64(len(idx))
	}
	return lastMSE
}

// refStep backpropagates one sample at a time, skipping zero deltas, and
// computes (and discards) the input layer's deltas.
func refStep(n *Net, X [][]float64, ys []float64, batch []int) float64 {
	gW := make([][]float64, len(n.Layers))
	gB := make([][]float64, len(n.Layers))
	maxW := n.InDim
	for li, l := range n.Layers {
		gW[li] = make([]float64, len(l.W))
		gB[li] = make([]float64, len(l.B))
		if l.Out > maxW {
			maxW = l.Out
		}
	}
	acts := refActs(n)
	bufA, bufB := make([]float64, maxW), make([]float64, maxW)
	sse := 0.0
	for _, i := range batch {
		out := refForward(n, X[i], acts, nil)
		err := out - ys[i]
		sse += err * err
		cur, nxt := bufA, bufB
		cur[0] = 2 * err / float64(len(batch))
		for li := len(n.Layers) - 1; li >= 0; li-- {
			l := n.Layers[li]
			post := acts[li]
			pre := X[i]
			if li > 0 {
				pre = acts[li-1]
			}
			if l.ReLU {
				for o := 0; o < l.Out; o++ {
					if post[o] <= 0 {
						cur[o] = 0
					}
				}
			}
			for j := 0; j < l.In; j++ {
				nxt[j] = 0
			}
			for o := 0; o < l.Out; o++ {
				d := cur[o]
				gB[li][o] += d
				if d == 0 {
					continue
				}
				row := l.W[o*l.In : (o+1)*l.In]
				grow := gW[li][o*l.In : (o+1)*l.In]
				for j := range row {
					grow[j] += d * pre[j]
					nxt[j] += d * row[j]
				}
			}
			cur, nxt = nxt, cur
		}
	}
	n.adamT++
	t := float64(n.adamT)
	const b1, b2, eps = 0.9, 0.999, 1e-8
	bc1 := 1 - math.Pow(b1, t)
	bc2 := 1 - math.Pow(b2, t)
	for li, l := range n.Layers {
		for j := range l.W {
			g := gW[li][j] + l2*l.W[j]
			l.mW[j] = b1*l.mW[j] + (1-b1)*g
			l.vW[j] = b2*l.vW[j] + (1-b2)*g*g
			l.W[j] -= lr * (l.mW[j] / bc1) / (math.Sqrt(l.vW[j]/bc2) + eps)
		}
		for j := range l.B {
			g := gB[li][j]
			l.mB[j] = b1*l.mB[j] + (1-b1)*g
			l.vB[j] = b2*l.vB[j] + (1-b2)*g*g
			l.B[j] -= lr * (l.mB[j] / bc1) / (math.Sqrt(l.vB[j]/bc2) + eps)
		}
	}
	return sse
}

// refMasks replays New's draws from Cfg.Seed: one per weight, layer by layer,
// then every sample's keep/drop multipliers for the ReLU layers' units (nil
// rows elsewhere).
func refMasks(n *Net) [][][]float64 {
	rng := rand.New(rand.NewSource(n.Cfg.Seed))
	for _, l := range n.Layers {
		for range l.W {
			rng.Float64()
		}
	}
	keep := 1 - dropout
	masks := make([][][]float64, mcSamples)
	for t := range masks {
		masks[t] = make([][]float64, len(n.Layers))
		for li, l := range n.Layers {
			if !l.ReLU {
				continue
			}
			m := make([]float64, l.Out)
			for o := range m {
				if rng.Float64() < keep {
					m[o] = 1 / keep
				}
			}
			masks[t][li] = m
		}
	}
	return masks
}

// refPredictVar runs one scalar forward pass per sample under refMasks.
func refPredictVar(n *Net, x []float64) (mean, variance float64) {
	acts := refActs(n)
	sum, sum2 := 0.0, 0.0
	for _, mask := range refMasks(n) {
		y := refForward(n, x, acts, mask)*n.YStd + n.YMean
		sum += y
		sum2 += y * y
	}
	mean = sum / mcSamples
	variance = sum2/mcSamples - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// refData draws rows×dim inputs in [-1, 1] (negative inputs make the zero
// products the per-sample loop skips signed) and a nonlinear target.
func refData(rows, dim int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, rows)
	y := make([]float64, rows)
	for i := range X {
		X[i] = make([]float64, dim)
		s := 0.0
		for j := range X[i] {
			X[i][j] = 2*rng.Float64() - 1
			s += X[i][j] * float64(j%3+1)
		}
		y[i] = s*s + math.Sin(3*X[i][0]) + rng.NormFloat64()*0.05
	}
	return X, y
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), reference %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sameNet compares every weight, bias and Adam moment bit for bit.
func sameNet(t *testing.T, got, want *Net) {
	t.Helper()
	if got.adamT != want.adamT {
		t.Fatalf("adamT %d, reference %d", got.adamT, want.adamT)
	}
	sameBits(t, "target scale", []float64{got.YMean, got.YStd}, []float64{want.YMean, want.YStd})
	for li, l := range got.Layers {
		r := want.Layers[li]
		sameBits(t, fmt.Sprintf("layer %d W", li), l.W, r.W)
		sameBits(t, fmt.Sprintf("layer %d B", li), l.B, r.B)
		sameBits(t, fmt.Sprintf("layer %d mW", li), l.mW, r.mW)
		sameBits(t, fmt.Sprintf("layer %d vW", li), l.vW, r.vW)
		sameBits(t, fmt.Sprintf("layer %d mB", li), l.mB, r.mB)
		sameBits(t, fmt.Sprintf("layer %d vB", li), l.vB, r.vB)
	}
}

// killUnits makes the first k units of every hidden layer output 0 for any
// input: their deltas are zero for every sample.
func killUnits(n *Net, k int) {
	for _, l := range n.Layers {
		if !l.ReLU {
			continue
		}
		for o := 0; o < k; o++ {
			for j := 0; j < l.In; j++ {
				l.W[o*l.In+j] = 0
			}
			l.B[o] = -1
		}
	}
}

// TestFitMatchesReference trains twin nets through Fit and through the
// per-sample reference and compares weights, biases, Adam moments and the
// returned MSE bit for bit.
func TestFitMatchesReference(t *testing.T) {
	cases := []struct {
		name      string
		dim, rows int
		cfg       Config
		dead      int // hidden units per layer forced dead
		refit     int // rows of a second, fine-tuning Fit (0 = none)
	}{
		// The server's training shape: 12→64→64→1, 60 samples, 200 epochs,
		// batch 32, so each epoch ends on a partial batch of 28.
		{name: "server", dim: 12, rows: 60, cfg: Config{Seed: 7}},
		{name: "batch-1", dim: 5, rows: 23, cfg: Config{Hidden: []int{16, 8}, Epochs: 6, Batch: 1, Seed: 2}},
		{name: "batch-over-n", dim: 4, rows: 20, cfg: Config{Hidden: []int{16}, Epochs: 30, Batch: 64, Seed: 3}},
		{name: "4x128", dim: 12, rows: 70, cfg: Config{Hidden: []int{128, 128, 128, 128}, Epochs: 6, Seed: 4}},
		{name: "dead-relu", dim: 6, rows: 45, cfg: Config{Hidden: []int{24, 16}, Epochs: 25, Batch: 8, Seed: 5}, dead: 5},
		{name: "fine-tune", dim: 12, rows: 60, cfg: Config{Epochs: 40, Seed: 6}, refit: 37},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := New(tc.dim, tc.cfg), New(tc.dim, tc.cfg)
			killUnits(got, tc.dead)
			killUnits(want, tc.dead)
			X, y := refData(tc.rows, tc.dim, tc.cfg.Seed)
			mse, refMSE := got.Fit(X, y), refFit(want, X, y)
			sameBits(t, "mse", []float64{mse}, []float64{refMSE})
			sameNet(t, got, want)
			if tc.refit == 0 {
				return
			}
			X2, y2 := refData(tc.refit, tc.dim, tc.cfg.Seed+100)
			got.Cfg.Epochs, want.Cfg.Epochs = 30, 30
			mse, refMSE = got.Fit(X2, y2), refFit(want, X2, y2)
			sameBits(t, "fine-tune mse", []float64{mse}, []float64{refMSE})
			sameNet(t, got, want)
		})
	}
}

// refInputs returns the all-+0, all-−0 and all-1 inputs, then count inputs
// whose entries are +0, −0, 1 or uniform in [-1, 1] with equal odds: the
// kernels skip ±0 entries that the scalar loops multiply.
func refInputs(rng *rand.Rand, dim, count int) [][]float64 {
	negZero := math.Copysign(0, -1)
	xs := make([][]float64, 0, count+3)
	for _, v := range []float64{0, negZero, 1} {
		x := make([]float64, dim)
		for i := range x {
			x[i] = v
		}
		xs = append(xs, x)
	}
	for k := 0; k < count; k++ {
		x := make([]float64, dim)
		for i := range x {
			switch rng.Intn(4) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = negZero
			case 2:
				x[i] = 1
			default:
				x[i] = 2*rng.Float64() - 1
			}
		}
		xs = append(xs, x)
	}
	return xs
}

// TestPredictValueGradMatchReference compares Predict and ValueGrad, one-row
// passes through the kernels, with the scalar forward pass and backprop by
// math.Float64bits.
func TestPredictValueGradMatchReference(t *testing.T) {
	X, y := refData(60, 12, 41)
	for _, tc := range []struct {
		name string
		cfg  Config
		dead int  // hidden units per layer forced dead
		fit  bool // train on (X, y) first
	}{
		// The server's model: 12→64→64→1 trained on 60 samples for 200 epochs.
		{name: "server", cfg: Config{Seed: 41}, fit: true},
		// Untrained: every bias is +0, and YStd 1.
		{name: "untrained", cfg: Config{Seed: 42}},
		{name: "4x128", cfg: Config{Hidden: []int{128, 128, 128, 128}, Epochs: 5, Seed: 43}, fit: true},
		{name: "one-hidden", cfg: Config{Hidden: []int{16}, Epochs: 30, Seed: 44}, fit: true},
		{name: "dead-relu", cfg: Config{Hidden: []int{24, 16}, Epochs: 30, Seed: 45}, dead: 5, fit: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := New(12, tc.cfg)
			killUnits(n, tc.dead)
			if tc.fit {
				n.Fit(X, y)
			}
			grad := make([]float64, n.InDim)
			for i, x := range refInputs(rand.New(rand.NewSource(tc.cfg.Seed)), n.InDim, 500) {
				want, wantG := refValueGrad(n, x)
				p := n.Predict(x)
				v, g := n.ValueGrad(x, grad)
				sameBits(t, fmt.Sprintf("input %d (Predict, ValueGrad) values", i), []float64{p, v}, []float64{want, want})
				sameBits(t, fmt.Sprintf("input %d ValueGrad gradient", i), g, wantG)
			}
		})
	}
}

// TestPredictVarMatchesReference compares PredictVar's (mean, variance) with
// the per-sample MC-dropout loop under masks replayed from the seed, over
// two passes through the inputs: a call's result must not depend on the
// calls before it.
func TestPredictVarMatchesReference(t *testing.T) {
	X, y := refData(60, 12, 21)
	for _, hidden := range [][]int{{64, 64}, {8}, {128, 128, 128, 128}} {
		t.Run(fmt.Sprintf("%v/samples-%d", hidden, mcSamples), func(t *testing.T) {
			n := New(12, Config{Hidden: hidden, Epochs: 5, Seed: 21})
			n.Fit(X, y)
			for pass := 0; pass < 2; pass++ {
				for i, x := range X[:12] {
					m, v := n.PredictVar(x)
					rm, rv := refPredictVar(n, x)
					sameBits(t, fmt.Sprintf("pass %d input %d (mean, variance)", pass, i), []float64{m, v}, []float64{rm, rv})
				}
			}
		})
	}
}

// mcNet is a trained server-shape net.
func mcNet() *Net {
	X, y := refData(60, 12, 31)
	n := New(12, Config{Epochs: 10, Seed: 31})
	n.Fit(X, y)
	return n
}

func testInput() []float64 {
	x := make([]float64, 12)
	for i := range x {
		x[i] = float64(i%5)/5 - 0.3
	}
	return x
}

// samePredictVar compares every (mean, variance) in conc, the results of
// concurrent PredictVar calls at x, with one sequential call at x on n.
func samePredictVar(t *testing.T, n *Net, conc [][2]float64, x []float64) {
	t.Helper()
	m, v := n.PredictVar(x)
	for i, r := range conc {
		sameBits(t, fmt.Sprintf("concurrent call %d (mean, variance)", i), r[:], []float64{m, v})
	}
}

// TestPredictVarConcurrent: N concurrent PredictVar calls at one x each
// return, bit for bit, what a sequential call at x returns.
func TestPredictVarConcurrent(t *testing.T) {
	const workers, perWorker = 4, 16
	x := testInput()
	n := mcNet()
	conc := make([][2]float64, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				conc[w*perWorker+i][0], conc[w*perWorker+i][1] = n.PredictVar(x)
			}
		}(w)
	}
	wg.Wait()
	samePredictVar(t, n, conc, x)
}

// TestPredictVarConcurrentWithBatch runs PredictVar beside PredictBatch, the
// split ForwardBatch pass and one-row Predict and ValueGrad calls on one net.
// Passes of 1, 9 and 16 rows share the pool's scratch, so each must still
// return what it returns alone.
func TestPredictVarConcurrentWithBatch(t *testing.T) {
	const workers, calls = 2, 40
	n := mcNet()
	X := randBatch(rand.New(rand.NewSource(4)), 9, 12)
	wantY := make([]float64, X.Rows)
	n.PredictBatch(X, wantY)
	wantG := linalg.NewMatrix(X.Rows, 12)
	splitPass(n, X, make([]float64, X.Rows), wantG)
	wantP := make([]float64, X.Rows)
	wantV := make([]float64, X.Rows)
	wantVG := linalg.NewMatrix(X.Rows, 12)
	for r := range wantP {
		wantP[r] = n.Predict(X.Row(r))
		wantV[r], _ = n.ValueGrad(X.Row(r), wantVG.Row(r))
	}
	x := testInput()
	conc := make([][2]float64, workers*calls)
	errs := make(chan string, 2*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(3)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				conc[w*calls+i][0], conc[w*calls+i][1] = n.PredictVar(x)
			}
		}(w)
		go func() {
			defer wg.Done()
			y := make([]float64, X.Rows)
			G := linalg.NewMatrix(X.Rows, 12)
			for i := 0; i < calls; i++ {
				n.PredictBatch(X, y)
				for r := range y {
					if y[r] != wantY[r] {
						errs <- fmt.Sprintf("PredictBatch row %d = %v, alone %v", r, y[r], wantY[r])
						return
					}
				}
				splitPass(n, X, y, G)
				for j := range G.Data {
					if G.Data[j] != wantG.Data[j] {
						errs <- fmt.Sprintf("ForwardBatch gradient %d = %v, alone %v", j, G.Data[j], wantG.Data[j])
						return
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			grad := make([]float64, 12)
			for i := 0; i < calls; i++ {
				r := i % X.Rows
				p := n.Predict(X.Row(r))
				v, g := n.ValueGrad(X.Row(r), grad)
				if math.Float64bits(p) != math.Float64bits(wantP[r]) || math.Float64bits(v) != math.Float64bits(wantV[r]) {
					errs <- fmt.Sprintf("row %d: Predict %v and ValueGrad %v, alone %v and %v", r, p, v, wantP[r], wantV[r])
					return
				}
				for j, gj := range g {
					if math.Float64bits(gj) != math.Float64bits(wantVG.At(r, j)) {
						errs <- fmt.Sprintf("row %d: ValueGrad gradient %d = %v, alone %v", r, j, gj, wantVG.At(r, j))
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	samePredictVar(t, n, conc, x)
}
