package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// The maximum-likelihood training as it was before its exps were hoisted,
// kept as the reference: kernel evaluates its 1+d exps on every call, the
// gradient evaluates every kernel entry again, and K⁻¹ is n CholSolve
// columns. Fit must reproduce refFit bit for bit, and mleGrad refMLEGrad;
// Predict, ValueGrad and PredictVar must reproduce the inference below,
// built on the same per-call-exps kernel.

// refFit trains a GP on (X, y). Inputs are expected in the normalized decision
// space [0,1]^d. It returns an error when X is empty, ragged, or the kernel
// matrix cannot be factorized even after jitter escalation.
func refFit(X [][]float64, y []float64, cfg Config) (*GP, error) {
	cfg.defaults()
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("gp: need equal-length non-empty X and y")
	}
	d := len(X[0])
	for _, row := range X {
		if len(row) != d {
			return nil, errors.New("gp: ragged input matrix")
		}
	}
	ystd := linalg.StdDev(y)
	if ystd < 1e-12 {
		ystd = 1
	}
	g := &GP{
		X:      X,
		dim:    d,
		logSF2: 2 * math.Log(ystd),
		logL:   make([]float64, d),
		logSN2: 2 * math.Log(noiseFloor*ystd),
		yMean:  linalg.Mean(y),
	}
	for i := range g.logL {
		g.logL[i] = math.Log(initLength)
	}
	if cfg.MLEIters > 0 {
		g.refMLE(y, cfg)
	}
	if err := g.refRefit(y); err != nil {
		return nil, err
	}
	return g, nil
}

// refKernel evaluates k(a, b) without the noise term.
func (g *GP) refKernel(a, b []float64) float64 {
	sf2 := math.Exp(g.logSF2)
	s := 0.0
	for i := range a {
		l := math.Exp(g.logL[i])
		d := (a[i] - b[i]) / l
		s += d * d
	}
	return sf2 * math.Exp(-0.5*s)
}

// refPredict is the posterior mean at x.
func (g *GP) refPredict(x []float64) float64 {
	dot := 0.0
	for i, xi := range g.X {
		dot += g.refKernel(x, xi) * g.alpha[i]
	}
	return g.yMean + dot
}

// refValueGrad is the posterior mean at x and its gradient,
// Σ_i α_i k(x, x_i) (x_i[d] − x[d]) / l_d², summed over every training point.
func (g *GP) refValueGrad(x []float64) (float64, []float64) {
	grad := make([]float64, g.dim)
	dot := 0.0
	for i, xi := range g.X {
		kv := g.refKernel(x, xi) * g.alpha[i]
		dot += kv
		for d := range grad {
			l := math.Exp(g.logL[d])
			grad[d] += kv * (xi[d] - x[d]) / (l * l)
		}
	}
	return g.yMean + dot, grad
}

// refPredictVar is the posterior mean and variance at x.
func (g *GP) refPredictVar(x []float64) (float64, float64) {
	ks := make([]float64, len(g.X))
	for i, xi := range g.X {
		ks[i] = g.refKernel(x, xi)
	}
	v := linalg.SolveLower(g.chol, ks)
	return g.yMean + linalg.Dot(ks, g.alpha), math.Max(0, g.refKernel(x, x)-linalg.Dot(v, v))
}

// refKernelMatrix builds K + σn²I over the training inputs.
func (g *GP) refKernelMatrix() *linalg.Matrix {
	n := len(g.X)
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := g.refKernel(g.X[i], g.X[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	k.AddDiag(math.Exp(g.logSN2))
	return k
}

// refRefit recomputes the Cholesky factor, alpha vector and log marginal
// likelihood for the current hyperparameters, escalating jitter on failure.
func (g *GP) refRefit(y []float64) error {
	n := len(y)
	centered := make([]float64, n)
	for i, v := range y {
		centered[i] = v - g.yMean
	}
	jitter := 0.0
	for attempt := 0; attempt < 6; attempt++ {
		k := g.refKernelMatrix()
		if jitter > 0 {
			k.AddDiag(jitter)
		}
		l, err := linalg.Cholesky(k)
		if err != nil {
			if jitter == 0 {
				jitter = 1e-8 * math.Exp(g.logSF2)
			} else {
				jitter *= 10
			}
			continue
		}
		g.chol = l
		g.alpha = linalg.CholSolve(l, centered)
		g.sf2 = math.Exp(g.logSF2)
		g.lsc = make([]float64, g.dim)
		g.l2 = make([]float64, g.dim)
		for d := range g.lsc {
			li := math.Exp(g.logL[d])
			g.lsc[d] = li
			g.l2[d] = li * li
		}
		g.LogML = -0.5*linalg.Dot(centered, g.alpha) -
			0.5*linalg.LogDetFromChol(l) -
			0.5*float64(n)*math.Log(2*math.Pi)
		return nil
	}
	return fmt.Errorf("gp: kernel matrix not positive definite after jitter escalation")
}

// refMLE maximizes the log marginal likelihood over (logSF2, logL, logSN2) with
// Adam, using the analytic gradient 0.5·tr((ααᵀ - K⁻¹)·∂K/∂θ).
func (g *GP) refMLE(y []float64, cfg Config) {
	n := len(y)
	centered := make([]float64, n)
	for i, v := range y {
		centered[i] = v - g.yMean
	}
	nParams := 2 + g.dim
	m := make([]float64, nParams)
	v := make([]float64, nParams)
	const b1, b2, eps = 0.9, 0.999, 1e-8
	bestLL := math.Inf(-1)
	bestTheta := g.theta()
	for it := 1; it <= cfg.MLEIters; it++ {
		grad, ll, ok := g.refMLEGrad(centered)
		if !ok {
			// Ill-conditioned kernel at these params: shrink back toward the
			// best seen and stop.
			break
		}
		if ll > bestLL {
			bestLL = ll
			bestTheta = g.theta()
		}
		t := float64(it)
		for p := 0; p < nParams; p++ {
			gp := grad[p]
			m[p] = b1*m[p] + (1-b1)*gp
			v[p] = b2*v[p] + (1-b2)*gp*gp
			step := mleLR * (m[p] / (1 - math.Pow(b1, t))) / (math.Sqrt(v[p]/(1-math.Pow(b2, t))) + eps)
			g.setThetaAt(p, g.thetaAt(p)+step) // ascent
		}
		// Keep hyperparameters in a sane box.
		g.logSN2 = linalg.Clamp(g.logSN2, g.logSF2-12, g.logSF2+2)
		for i := range g.logL {
			g.logL[i] = linalg.Clamp(g.logL[i], math.Log(0.02), math.Log(20))
		}
	}
	g.setTheta(bestTheta)
}

// refMLEGrad returns (∂L/∂θ, L) at the current hyperparameters.
func (g *GP) refMLEGrad(centered []float64) ([]float64, float64, bool) {
	n := len(centered)
	k := g.refKernelMatrix()
	l, err := linalg.Cholesky(k)
	if err != nil {
		return nil, 0, false
	}
	alpha := linalg.CholSolve(l, centered)
	ll := -0.5*linalg.Dot(centered, alpha) - 0.5*linalg.LogDetFromChol(l) - 0.5*float64(n)*math.Log(2*math.Pi)

	// K⁻¹ via n solves.
	kinv := linalg.NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		col := linalg.CholSolve(l, e)
		for i := 0; i < n; i++ {
			kinv.Set(i, j, col[i])
		}
		e[j] = 0
	}
	// W = ααᵀ - K⁻¹; grad_θ = 0.5 tr(W · dK/dθ) = 0.5 Σ_ij W_ij dK_ij/dθ.
	grad := make([]float64, 2+g.dim)
	sn2 := math.Exp(g.logSN2)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w := alpha[i]*alpha[j] - kinv.At(i, j)
			kij := g.refKernel(g.X[i], g.X[j]) // signal part only
			// ∂K/∂logSF2 = signal part
			grad[0] += 0.5 * w * kij
			// ∂K/∂logL_d = kij · (Δ_d/l_d)²
			for d := 0; d < g.dim; d++ {
				ld := math.Exp(g.logL[d])
				dd := (g.X[i][d] - g.X[j][d]) / ld
				grad[1+d] += 0.5 * w * kij * dd * dd
			}
			// ∂K/∂logSN2 = σn² on the diagonal
			if i == j {
				grad[1+g.dim] += 0.5 * w * sn2
			}
		}
	}
	return grad, ll, true
}

// gpData draws n inputs in [0,1]^d and targets; dup copies every third row
// from an earlier one and constant makes every target 3.
func gpData(rng *rand.Rand, n, d int, dup, constant bool) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		if dup && i > 0 && i%3 == 0 {
			copy(X[i], X[rng.Intn(i)])
		} else {
			for k := range X[i] {
				X[i][k] = rng.Float64()
			}
		}
		y[i] = math.Sin(4*X[i][0]) + X[i][d-1]*X[i][d-1] + 0.05*rng.NormFloat64()
		if constant {
			y[i] = 3
		}
	}
	return X, y
}

// fitDiff names the first fitted value where got and want differ in bits,
// or returns "".
func fitDiff(got, want *GP) string {
	vals := func(g *GP) map[string][]float64 {
		m := map[string][]float64{
			"logSF2": {g.logSF2}, "logL": g.logL, "logSN2": {g.logSN2},
			"yMean": {g.yMean}, "LogML": {g.LogML}, "alpha": g.alpha,
			"sf2": {g.sf2}, "lsc": g.lsc, "l2": g.l2,
		}
		if g.chol != nil {
			m["chol"] = g.chol.Data
		}
		return m
	}
	gv, wv := vals(got), vals(want)
	for _, k := range []string{"logSF2", "logL", "logSN2", "yMean", "LogML", "alpha", "sf2", "lsc", "l2", "chol"} {
		if d := bitsDiff(gv[k], wv[k]); d != "" {
			return k + d
		}
	}
	return ""
}

// bitsDiff names the first index where a and b differ in bits, or returns "".
func bitsDiff(a, b []float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf(": length %d, reference %d", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf("[%d] = %v, reference %v", i, a[i], b[i])
		}
	}
	return ""
}

// checkFit fits (X, y) both ways and fails on any difference in bits, in
// the fitted values or in Predict, ValueGrad and PredictVar against the
// reference inference at three points: the first training input, the
// center of the cube, and the midpoint of the first and last inputs.
func checkFit(t *testing.T, name string, X [][]float64, y []float64, cfg Config) {
	t.Helper()
	got, gerr := Fit(X, y, cfg)
	want, werr := refFit(X, y, cfg)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: error %v, reference %v", name, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if d := fitDiff(got, want); d != "" {
		t.Fatalf("%s: %s", name, d)
	}
	center := make([]float64, len(X[0]))
	mid := make([]float64, len(X[0]))
	for d := range center {
		center[d] = 0.5
		mid[d] = (X[0][d] + X[len(X)-1][d]) / 2
	}
	for _, x := range [][]float64{X[0], center, mid} {
		v, grad := got.ValueGrad(x, nil)
		wv, wgrad := want.refValueGrad(x)
		mean, variance := got.PredictVar(x)
		wmean, wvariance := want.refPredictVar(x)
		if d := bitsDiff([]float64{got.Predict(x), v, mean, variance}, []float64{want.refPredict(x), wv, wmean, wvariance}); d != "" {
			t.Fatalf("%s: Predict, ValueGrad, PredictVar mean and variance at %v%s", name, x, d)
		}
		if d := bitsDiff(grad, wgrad); d != "" {
			t.Fatalf("%s: ValueGrad gradient at %v%s", name, x, d)
		}
	}
}

// TestFitMatchesReference compares Fit with refFit by Float64bits on the
// model server's shape, on random shapes and step counts (the default 80
// included) with plain, duplicated-row and constant data, and on a fit whose
// MLE stops on a failed Cholesky and whose refit then escalates jitter.
func TestFitMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	X, y := gpData(rng, 60, 12, false, false)
	checkFit(t, "server shape", X, y, Config{})

	iters := []int{-1, 0, 1, 15, 80}
	for trial := 0; trial < 25; trial++ {
		n, d := 1+rng.Intn(90), 1+rng.Intn(15)
		dup, constant := trial%3 == 1, trial%5 == 2
		X, y := gpData(rng, n, d, dup, constant)
		cfg := Config{MLEIters: iters[trial%len(iters)]}
		checkFit(t, fmt.Sprintf("trial %d (%d×%d, %d steps, dup %v, constant %v)", trial, n, d, cfg.MLEIters, dup, constant), X, y, cfg)
	}

	// Two equal rows, σf² = 1 and σn² = e⁻⁸⁰: K's second pivot is
	// 1 + e⁻⁸⁰ − 1 = 0, so the first MLE step's Cholesky fails, the MLE keeps
	// these hyperparameters, and refit must add jitter.
	X, y = gpData(rng, 8, 3, false, false)
	copy(X[1], X[0])
	handSet := func() *GP {
		g := &GP{X: X, dim: 3, logL: []float64{-0.7, -0.7, -0.7}, logSN2: -80, yMean: linalg.Mean(y)}
		return g
	}
	ref := handSet()
	centered := make([]float64, len(y))
	for i, v := range y {
		centered[i] = v - ref.yMean
	}
	if _, _, ok := ref.refMLEGrad(centered); ok {
		t.Fatal("hand-set hyperparameters: the reference MLE step factored K; want a failed Cholesky")
	}
	ref.refMLE(y, Config{MLEIters: 15})
	if _, err := linalg.Cholesky(ref.refKernelMatrix()); !errors.Is(err, linalg.ErrNotPositiveDefinite) {
		t.Fatalf("hand-set hyperparameters after the MLE: Cholesky error %v; want refit to need jitter", err)
	}
	if err := ref.refRefit(y); err != nil {
		t.Fatal(err)
	}
	g := handSet()
	g.mle(y, Config{MLEIters: 15})
	if err := g.refit(y); err != nil {
		t.Fatal(err)
	}
	if d := fitDiff(g, ref); d != "" {
		t.Fatalf("failed MLE step and jitter: %s", d)
	}
}

// TestMLEGradMatchesReference compares one MLE step's gradient and log
// likelihood with the reference at random hyperparameters inside the MLE's
// clamp box and up to two units (in log space) beyond it, failed Cholesky
// factorizations included.
func TestMLEGradMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	lo, hi := math.Log(0.02), math.Log(20)
	fails := 0
	for trial := 0; trial < 200; trial++ {
		n, d := 1+rng.Intn(40), 1+rng.Intn(10)
		X, y := gpData(rng, n, d, trial%2 == 1, false)
		g := &GP{X: X, dim: d, logSF2: 20*rng.Float64() - 10, logL: make([]float64, d), yMean: linalg.Mean(y)}
		for k := range g.logL {
			g.logL[k] = lo - 2 + (hi-lo+4)*rng.Float64()
		}
		g.logSN2 = g.logSF2 - 60 + 64*rng.Float64()
		centered := make([]float64, n)
		for i, v := range y {
			centered[i] = v - g.yMean
		}
		grad, ll, ok := g.mleGrad(centered, newMLEWork(n, d))
		wgrad, wll, wok := g.refMLEGrad(centered)
		if ok != wok {
			t.Fatalf("trial %d: ok %v, reference %v", trial, ok, wok)
		}
		if !ok {
			fails++
			continue
		}
		if dg := bitsDiff(append(grad, ll), append(wgrad, wll)); dg != "" {
			t.Fatalf("trial %d (%d×%d): gradient and log likelihood%s", trial, n, d, dg)
		}
	}
	if fails == 0 || fails > 100 {
		t.Fatalf("%d of 200 trials failed to factor K; want some, not most", fails)
	}
}

// FuzzGPFit compares Fit with refFit by bits on small inputs the fuzzer
// picks: shape and step count from the first three bytes, then X and y from
// the rest, cycled, so duplicated rows and constant targets are common.
func FuzzGPFit(f *testing.F) {
	f.Add(byte(5), byte(2), byte(3), []byte{0x10, 0x80, 0xff, 0x33, 0x07})
	f.Add(byte(15), byte(4), byte(10), []byte{0})
	f.Add(byte(0), byte(0), byte(1), []byte{0x42})
	f.Add(byte(11), byte(1), byte(0), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, nb, db, sb byte, data []byte) {
		n, d := 1+int(nb%16), 1+int(db%5)
		steps := int(sb % 11)
		if steps == 0 {
			steps = -1
		}
		if len(data) == 0 {
			data = []byte{0}
		}
		p := 0
		next := func() byte { b := data[p%len(data)]; p++; return b }
		X := make([][]float64, n)
		y := make([]float64, n)
		for i := range X {
			X[i] = make([]float64, d)
			for k := range X[i] {
				X[i][k] = float64(next()) / 255
			}
			y[i] = float64(int8(next())) / 16
		}
		checkFit(t, fmt.Sprintf("%d×%d, %d steps", n, d, steps), X, y, Config{MLEIters: steps})
	})
}
