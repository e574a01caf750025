// Package gp implements Gaussian-process regression as used by the paper for
// objective models (§II-B, §V): a zero-mean GP with a squared-exponential
// ARD kernel, exact Cholesky-based posterior inference, maximum-likelihood
// hyperparameter learning by gradient ascent on the log marginal likelihood,
// and analytic gradients of the posterior mean and standard deviation with
// respect to the test input — the pieces MOGD needs to optimize GP-modeled
// objectives, and OtterTune/MOBO need for acquisition search.
//
// Each Adam step of the MLE evaluates its hyperparameter exps once, builds
// the signal kernel matrix once and reads it again in the gradient, and
// forms K⁻¹ in place, in buffers kept for all the steps of a fit. Every
// fitted value has the bits of the plain per-call-exps training that
// ref_test.go keeps as the reference.
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
	// refit: sf2 = exp(logSF2), lsc[d] = l_d, l2[d] = l_d². Inference passes
	// sf2 and lsc to kernel, so its per-training-point kernel evaluations
	// are exp-free per dimension.
	sf2 float64
	lsc []float64
	l2  []float64
}

// Fit trains a GP on (X, y). Inputs are expected in the normalized decision
// space [0,1]^d. It returns an error when X is empty or ragged, when a row
// of X or y holds a NaN or an infinity, or when the kernel matrix cannot be
// factorized even after jitter escalation.
func Fit(X [][]float64, y []float64, cfg Config) (*GP, error) {
	cfg.defaults()
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("gp: need equal-length non-empty X and y")
	}
	d := len(X[0])
	for i, row := range X {
		if len(row) != d {
			return nil, errors.New("gp: ragged input matrix")
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("gp: input row %d is not finite: %v", i, row)
			}
		}
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return nil, fmt.Errorf("gp: target of row %d is not finite: %v", i, y[i])
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

// exps returns the signal and noise variances σf² = exp(logSF2) and
// σn² = exp(logSN2) and fills ell with the lengthscales ℓ_d = exp(logL_d).
func (g *GP) exps(ell []float64) (sf2, sn2 float64) {
	for d, v := range g.logL {
		ell[d] = math.Exp(v)
	}
	return math.Exp(g.logSF2), math.Exp(g.logSN2)
}

// kernel evaluates k(a, b) without the noise term, for lengthscales ell and
// signal variance sf2.
func kernel(a, b, ell []float64, sf2 float64) float64 {
	s := 0.0
	for i := range a {
		d := (a[i] - b[i]) / ell[i]
		s += d * d
	}
	return sf2 * math.Exp(-0.5*s)
}

// signalMatrix fills s with the signal kernel matrix over the training
// inputs. Each k(x_i, x_j), j ≤ i, is evaluated once and mirrored: k(x_j,
// x_i) has the same bits, as x_j − x_i = −(x_i − x_j) exactly and the
// square drops the sign.
func (g *GP) signalMatrix(s *linalg.Matrix, ell []float64, sf2 float64) {
	for i, xi := range g.X {
		for j, xj := range g.X[:i+1] {
			v := kernel(xi, xj, ell, sf2)
			s.Set(i, j, v)
			s.Set(j, i, v)
		}
	}
}

// noisy sets k's lower triangle to that of K = S + σn²I, plus jitter·I when
// jitter > 0; it reads only S's lower triangle.
func noisy(k, s *linalg.Matrix, sn2, jitter float64) {
	for i := 0; i < s.Rows; i++ {
		copy(k.Row(i)[:i+1], s.Row(i)[:i+1])
	}
	k.AddDiag(sn2)
	if jitter > 0 {
		k.AddDiag(jitter)
	}
}

// refit recomputes the Cholesky factor, alpha vector and log marginal
// likelihood for the current hyperparameters, escalating jitter on failure.
func (g *GP) refit(y []float64) error {
	n := len(y)
	centered := make([]float64, n)
	for i, v := range y {
		centered[i] = v - g.yMean
	}
	g.lsc = make([]float64, g.dim)
	g.l2 = make([]float64, g.dim)
	var sn2 float64
	g.sf2, sn2 = g.exps(g.lsc)
	for d, li := range g.lsc {
		g.l2[d] = li * li
	}
	s := linalg.NewMatrix(n, n)
	g.signalMatrix(s, g.lsc, g.sf2)
	k := linalg.NewMatrix(n, n)
	jitter := 0.0
	for attempt := 0; attempt < 6; attempt++ {
		noisy(k, s, sn2, jitter)
		l, err := linalg.Cholesky(k)
		if err != nil {
			if jitter == 0 {
				jitter = 1e-8 * g.sf2
			} else {
				jitter *= 10
			}
			continue
		}
		g.chol = l
		g.alpha = linalg.CholSolve(l, centered)
		g.LogML = -0.5*linalg.Dot(centered, g.alpha) -
			0.5*linalg.LogDetFromChol(l) -
			0.5*float64(n)*math.Log(2*math.Pi)
		return nil
	}
	return fmt.Errorf("gp: kernel matrix not positive definite after jitter escalation")
}

// mleWork is the state of one MLE step, allocated once per fit and reused
// by every step: the lengthscales ℓ_d, the signal kernel matrix S, the
// Cholesky factor of K = S + σn²I, K⁻¹ and the gradient.
type mleWork struct {
	ell          []float64
	s, chol, inv *linalg.Matrix
	grad         []float64
}

func newMLEWork(n, dim int) *mleWork {
	return &mleWork{
		ell:  make([]float64, dim),
		s:    linalg.NewMatrix(n, n),
		chol: linalg.NewMatrix(n, n),
		inv:  linalg.NewMatrix(n, n),
		grad: make([]float64, 2+dim),
	}
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
	w := newMLEWork(n, g.dim)
	for it := 1; it <= cfg.MLEIters; it++ {
		grad, ll, ok := g.mleGrad(centered, w)
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

// mleGrad returns (∂L/∂θ, L) at the current hyperparameters, in w.grad.
func (g *GP) mleGrad(centered []float64, w *mleWork) ([]float64, float64, bool) {
	n := len(centered)
	sf2, sn2 := g.exps(w.ell)
	g.signalMatrix(w.s, w.ell, sf2)
	noisy(w.chol, w.s, sn2, 0)
	if linalg.CholeskyInPlace(w.chol) != nil {
		return nil, 0, false
	}
	l := w.chol
	alpha := linalg.CholSolve(l, centered)
	ll := -0.5*linalg.Dot(centered, alpha) - 0.5*linalg.LogDetFromChol(l) - 0.5*float64(n)*math.Log(2*math.Pi)

	cholInverse(l, w.inv)
	// W = ααᵀ - K⁻¹; grad_θ = 0.5 tr(W · dK/dθ) = 0.5 Σ_ij W_ij dK_ij/dθ.
	grad := w.grad
	for p := range grad {
		grad[p] = 0
	}
	gl := grad[1 : 1+g.dim]
	ell := w.ell[:len(gl)]
	for i, xi := range g.X {
		xi := xi[:len(gl)]
		si := w.s.Row(i)
		inv := w.inv.Row(i)
		for j, xj := range g.X {
			xj := xj[:len(gl)]
			wij := alpha[i]*alpha[j] - inv[j]
			// ∂K/∂logSF2 = signal part
			c := 0.5 * wij * si[j]
			grad[0] += c
			// ∂K/∂logL_d = kij · (Δ_d/l_d)²
			for d, ld := range ell {
				dd := (xi[d] - xj[d]) / ld
				gl[d] += c * dd * dd
			}
			// ∂K/∂logSN2 = σn² on the diagonal
			if i == j {
				grad[1+g.dim] += 0.5 * wij * sn2
			}
		}
	}
	return grad, ll, true
}

// cholInverse sets inv to K⁻¹ for the Cholesky factor l of K. Column j is
// the solve K·x = e_j by forward then back substitution, and each element
// subtracts the same products in the same ascending order as SolveLower and
// SolveUpperT would, so it has their bits. The forward sweep of column j
// starts at row j: the rows above it are exact +0, and a product with one
// of them leaves every later sum, which starts from +0 or 1, unchanged.
// Both sweeps run one row of all columns at a time in place, so the inner
// loops carry independent sums, and subtract four rows per pass over one.
func cholInverse(l, inv *linalg.Matrix) {
	n := l.Rows
	// Forward: row i of Y = L⁻¹ from the rows above it.
	for i := 0; i < n; i++ {
		li := l.Row(i)
		yi := inv.Row(i)
		for j := range yi {
			yi[j] = 0
		}
		yi[i] = 1
		k := 0
		for ; k+4 <= i; k += 4 {
			// Column j takes row k's product only when j ≤ k, as its solve
			// starts at row j: columns k+1..k+3 take only the products of
			// the rows at or below them.
			a0, a1, a2, a3 := li[k], li[k+1], li[k+2], li[k+3]
			y0 := inv.Row(k)[:k+1]
			y1 := inv.Row(k + 1)[:k+2]
			y2 := inv.Row(k + 2)[:k+3]
			y3 := inv.Row(k + 3)[:k+4]
			dst, b1, b2, b3 := yi[:k+1], y1[:k+1], y2[:k+1], y3[:k+1]
			for j, v := range y0 {
				dst[j] = dst[j] - a0*v - a1*b1[j] - a2*b2[j] - a3*b3[j]
			}
			yi[k+1] = yi[k+1] - a1*y1[k+1] - a2*y2[k+1] - a3*y3[k+1]
			yi[k+2] = yi[k+2] - a2*y2[k+2] - a3*y3[k+2]
			yi[k+3] -= a3 * y3[k+3]
		}
		for ; k < i; k++ {
			a := li[k]
			yk := inv.Row(k)[:k+1]
			dst := yi[:len(yk)]
			for j, v := range yk {
				dst[j] -= a * v
			}
		}
		for j := range yi[:i+1] {
			yi[j] /= li[i]
		}
	}
	// Back: row i of K⁻¹ = L⁻ᵀY from the rows below it.
	for i := n - 1; i >= 0; i-- {
		xi := inv.Row(i)[:n]
		k := i + 1
		for ; k+4 <= n; k += 4 {
			a0, a1, a2, a3 := l.At(k, i), l.At(k+1, i), l.At(k+2, i), l.At(k+3, i)
			x0 := inv.Row(k)[:n]
			x1 := inv.Row(k + 1)[:n]
			x2 := inv.Row(k + 2)[:n]
			x3 := inv.Row(k + 3)[:n]
			for j, v := range x0 {
				xi[j] = xi[j] - a0*v - a1*x1[j] - a2*x2[j] - a3*x3[j]
			}
		}
		for ; k < n; k++ {
			a := l.At(k, i)
			for j, v := range inv.Row(k)[:n] {
				xi[j] -= a * v
			}
		}
		d := l.At(i, i)
		for j := range xi {
			xi[j] /= d
		}
	}
}

// Predict implements model.Model (posterior mean). Safe for concurrent use.
func (g *GP) Predict(x []float64) float64 {
	dot := 0.0
	for i, xi := range g.X {
		dot += kernel(x, xi, g.lsc, g.sf2) * g.alpha[i]
	}
	return g.yMean + dot
}

// PredictVar implements model.Uncertain: posterior mean and variance at x.
func (g *GP) PredictVar(x []float64) (float64, float64) {
	n := len(g.X)
	ks := make([]float64, n)
	for i := 0; i < n; i++ {
		ks[i] = kernel(x, g.X[i], g.lsc, g.sf2)
	}
	mean := g.yMean + linalg.Dot(ks, g.alpha)
	v := linalg.SolveLower(g.chol, ks)
	variance := kernel(x, x, g.lsc, g.sf2) - linalg.Dot(v, v)
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
		kv := kernel(x, xi, g.lsc, g.sf2) * g.alpha[i]
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
