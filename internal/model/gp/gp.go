// Package gp implements Gaussian-process regression as used by the paper for
// objective models (§II-B, §V): a zero-mean GP with a squared-exponential
// ARD kernel, exact Cholesky-based posterior inference, maximum-likelihood
// hyperparameter learning by gradient ascent on the log marginal likelihood,
// and analytic gradients of the posterior mean and standard deviation with
// respect to the test input — the pieces MOGD needs to optimize GP-modeled
// objectives, and OtterTune/MOBO need for acquisition search.
package gp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/model"
)

// Config controls MLE training.
type Config struct {
	// MLEIters is the number of Adam steps on the log marginal likelihood
	// (default 80; a negative count keeps the initial hyperparameters).
	MLEIters int
}

// Fitting constants: the initial per-dimension lengthscale, for inputs
// normalized to [0,1]; the minimum observation noise std as a fraction of
// the target std, which keeps the kernel matrix well conditioned; and the
// Adam learning rate of the MLE.
const (
	initLength = 0.5
	noiseFloor = 0.05
	mleLR      = 0.05
)

func (c *Config) defaults() {
	if c.MLEIters == 0 {
		c.MLEIters = 80
	}
}

// GP is a trained Gaussian-process regression model.
type GP struct {
	X   [][]float64 // training inputs, n×d
	dim int
	// Hyperparameters (stored as logs for unconstrained optimization).
	logSF2 float64   // log signal variance σf²
	logL   []float64 // log lengthscale per dimension
	logSN2 float64   // log noise variance σn²
	yMean  float64
	chol   *linalg.Matrix // Cholesky factor of K
	alpha  []float64      // K⁻¹(y - mean)
	LogML  float64        // log marginal likelihood at the fitted params
	// Inference-time caches of the fitted hyperparameters, refreshed by
	// refit: sf2 = exp(logSF2), lsc[d] = l_d, l2[d] = l_d² — they keep the
	// per-training-point kernel evaluations of the prediction hot path
	// exp-free per dimension while preserving the exact arithmetic of the
	// uncached kernel (same divisions, bit-identical results).
	sf2 float64
	lsc []float64
	l2  []float64
}

// Fit trains a GP on (X, y). Inputs are expected in the normalized decision
// space [0,1]^d. It returns an error when X is empty, ragged, or the kernel
// matrix cannot be factorized even after jitter escalation.
func Fit(X [][]float64, y []float64, cfg Config) (*GP, error) {
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
		g.mle(y, cfg)
	}
	if err := g.refit(y); err != nil {
		return nil, err
	}
	return g, nil
}

// Dim implements model.Model.
func (g *GP) Dim() int { return g.dim }

// kernel evaluates k(a, b) without the noise term.
func (g *GP) kernel(a, b []float64) float64 {
	sf2 := math.Exp(g.logSF2)
	s := 0.0
	for i := range a {
		l := math.Exp(g.logL[i])
		d := (a[i] - b[i]) / l
		s += d * d
	}
	return sf2 * math.Exp(-0.5*s)
}

// kernelMatrix builds K + σn²I over the training inputs.
func (g *GP) kernelMatrix() *linalg.Matrix {
	n := len(g.X)
	k := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := g.kernel(g.X[i], g.X[j])
			k.Set(i, j, v)
			k.Set(j, i, v)
		}
	}
	k.AddDiag(math.Exp(g.logSN2))
	return k
}

// refit recomputes the Cholesky factor, alpha vector and log marginal
// likelihood for the current hyperparameters, escalating jitter on failure.
func (g *GP) refit(y []float64) error {
	n := len(y)
	centered := make([]float64, n)
	for i, v := range y {
		centered[i] = v - g.yMean
	}
	jitter := 0.0
	for attempt := 0; attempt < 6; attempt++ {
		k := g.kernelMatrix()
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

// mle maximizes the log marginal likelihood over (logSF2, logL, logSN2) with
// Adam, using the analytic gradient 0.5·tr((ααᵀ - K⁻¹)·∂K/∂θ).
func (g *GP) mle(y []float64, cfg Config) {
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
		grad, ll, ok := g.mleGrad(centered)
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

func (g *GP) theta() []float64 {
	t := make([]float64, 2+g.dim)
	t[0] = g.logSF2
	copy(t[1:], g.logL)
	t[1+g.dim] = g.logSN2
	return t
}

func (g *GP) setTheta(t []float64) {
	g.logSF2 = t[0]
	copy(g.logL, t[1:1+g.dim])
	g.logSN2 = t[1+g.dim]
}

func (g *GP) thetaAt(p int) float64 {
	switch {
	case p == 0:
		return g.logSF2
	case p <= g.dim:
		return g.logL[p-1]
	default:
		return g.logSN2
	}
}

func (g *GP) setThetaAt(p int, v float64) {
	switch {
	case p == 0:
		g.logSF2 = v
	case p <= g.dim:
		g.logL[p-1] = v
	default:
		g.logSN2 = v
	}
}

// mleGrad returns (∂L/∂θ, L) at the current hyperparameters.
func (g *GP) mleGrad(centered []float64) ([]float64, float64, bool) {
	n := len(centered)
	k := g.kernelMatrix()
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
			kij := g.kernel(g.X[i], g.X[j]) // signal part only
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

// kernelFitted evaluates k(a, b) with the cached fitted hyperparameters —
// the inference-path twin of kernel (which recomputes the exps so it stays
// correct mid-MLE).
func (g *GP) kernelFitted(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := (a[i] - b[i]) / g.lsc[i]
		s += d * d
	}
	return g.sf2 * math.Exp(-0.5*s)
}

// Predict implements model.Model (posterior mean). Safe for concurrent use.
func (g *GP) Predict(x []float64) float64 {
	dot := 0.0
	for i, xi := range g.X {
		dot += g.kernelFitted(x, xi) * g.alpha[i]
	}
	return g.yMean + dot
}

// PredictVar implements model.Uncertain: posterior mean and variance at x.
func (g *GP) PredictVar(x []float64) (float64, float64) {
	n := len(g.X)
	ks := make([]float64, n)
	for i := 0; i < n; i++ {
		ks[i] = g.kernelFitted(x, g.X[i])
	}
	mean := g.yMean + linalg.Dot(ks, g.alpha)
	v := linalg.SolveLower(g.chol, ks)
	variance := g.kernelFitted(x, x) - linalg.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	return mean, variance
}

// ValueGrad implements model.ValueGradienter: the posterior mean and its
// analytic gradient, ∂m/∂x_d = Σ_i α_i k(x, x_i) (x_i[d] - x[d]) / l_d²,
// share one kernel evaluation per training point (each scaled by the cached
// Cholesky-solve vector α), where a separate Predict would evaluate the
// kernel row again.
func (g *GP) ValueGrad(x, grad []float64) (float64, []float64) {
	out := model.GradBuf(grad, g.dim)
	for d := range out {
		out[d] = 0
	}
	dot := 0.0
	for i, xi := range g.X {
		kv := g.kernelFitted(x, xi) * g.alpha[i]
		dot += kv
		if kv == 0 {
			continue
		}
		for d := 0; d < g.dim; d++ {
			out[d] += kv * (xi[d] - x[d]) / g.l2[d]
		}
	}
	return g.yMean + dot, out
}

var (
	_ model.ValueGradienter = (*GP)(nil)
	_ model.Uncertain       = (*GP)(nil)
)

// Lengthscales returns the fitted per-dimension lengthscales; small values
// indicate influential dimensions (used as a knob-importance signal).
func (g *GP) Lengthscales() []float64 {
	out := make([]float64, g.dim)
	for i, l := range g.logL {
		out[i] = math.Exp(l)
	}
	return out
}
