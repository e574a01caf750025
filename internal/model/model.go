// Package model defines the predictive-model abstraction Ψ_i(x) that the
// MOO layer optimizes over (paper §II-B, "Remarks on modeling choices").
//
// A model maps a configuration in the solver's normalized decision space
// [0,1]^D to a scalar objective value. The MOGD solver additionally needs
// the value with its input gradient (ValueGradienter, or NumericGradient for
// models without one) and, for uncertainty-aware optimization (paper
// §IV-B.3), predictive variance (Uncertain).
package model

import (
	"math"
	"sync"

	"repro/internal/linalg"
)

// Model predicts a single objective from a D-dimensional configuration.
type Model interface {
	// Dim returns the input dimensionality D.
	Dim() int
	// Predict returns the objective value at x. len(x) must equal Dim().
	Predict(x []float64) float64
}

// Uncertain is a Model with predictive uncertainty: Gaussian processes and
// Bayesian-approximated DNNs (paper [9], [27]).
type Uncertain interface {
	Model
	// PredictVar returns the predictive mean and variance at x.
	PredictVar(x []float64) (mean, variance float64)
}

// ValueGradienter is a Model that evaluates its value and input gradient in
// one fused pass — the MOGD hot path (§IV-B evaluates both every Adam
// iteration; fusing halves the model evaluations). grad, when it has length
// Dim(), is used as the output buffer and the returned slice aliases it;
// passing nil (or a wrong-length slice) allocates. Implementations must be
// safe for concurrent use when the underlying Predict is. Models without an
// analytic gradient can be wrapped with NumericGradient.
type ValueGradienter interface {
	Model
	// ValueGrad returns Predict(x) and ∂Predict/∂x at x.
	ValueGrad(x, grad []float64) (float64, []float64)
}

// GradBuf returns grad when it already has length n, and a fresh slice
// otherwise. ValueGrad implementations use it to honor the caller's scratch
// buffer; the contents are overwritten, not accumulated into.
func GradBuf(grad []float64, n int) []float64 {
	if len(grad) == n {
		return grad
	}
	return make([]float64, n)
}

// EnsureValueGrad returns m as a ValueGradienter: m itself when it has a
// fused path, and NumericGradient (whose ValueGrad differences into the
// caller's buffer) otherwise.
func EnsureValueGrad(m Model) ValueGradienter {
	if g, ok := m.(ValueGradienter); ok {
		return g
	}
	return NumericGradient{M: m}
}

// NumericGradient wraps any Model with central finite differences so the
// MOGD solver can optimize models that lack analytic gradients (e.g.
// handcrafted regression functions with non-differentiable pieces, for which
// the finite difference acts as a subgradient choice).
type NumericGradient struct {
	M Model
}

// fdStep is NumericGradient's finite-difference step.
const fdStep = 1e-5

// Dim implements Model.
func (n NumericGradient) Dim() int { return n.M.Dim() }

// Predict implements Model.
func (n NumericGradient) Predict(x []float64) float64 { return n.M.Predict(x) }

// ValueGrad implements ValueGradienter with the central finite-difference
// gradient of the wrapped model, clamping probe points into [0,1] so
// boundary evaluations stay in the normalized decision space. The value
// costs one extra model evaluation on top of the 2·D probes.
func (n NumericGradient) ValueGrad(x, grad []float64) (float64, []float64) {
	out := GradBuf(grad, len(x))
	n.gradientInto(x, out)
	return n.M.Predict(x), out
}

// probes recycles NumericGradient's probe vectors, so a numeric ValueGrad
// allocates nothing at steady state.
var probes = sync.Pool{New: func() any { return new([]float64) }}

func (n NumericGradient) gradientInto(x, g []float64) {
	buf := probes.Get().(*[]float64)
	xp := append((*buf)[:0], x...)
	for i := range x {
		lo := linalg.Clamp(x[i]-fdStep, 0, 1)
		hi := linalg.Clamp(x[i]+fdStep, 0, 1)
		if hi == lo {
			g[i] = 0
			continue
		}
		xp[i] = hi
		fp := n.M.Predict(xp)
		xp[i] = lo
		fm := n.M.Predict(xp)
		xp[i] = x[i]
		g[i] = (fp - fm) / (hi - lo)
	}
	*buf = xp
	probes.Put(buf)
}

// Func adapts a plain function into a Model; used for handcrafted models and
// in tests.
type Func struct {
	D int
	F func(x []float64) float64
}

// Dim implements Model.
func (f Func) Dim() int { return f.D }

// Predict implements Model.
func (f Func) Predict(x []float64) float64 { return f.F(x) }

// Negated flips the sign of a model, turning a maximization objective (e.g.
// throughput) into the minimization form of Problem III.1.
type Negated struct{ M Model }

// Dim implements Model.
func (n Negated) Dim() int { return n.M.Dim() }

// Predict implements Model.
func (n Negated) Predict(x []float64) float64 { return -n.M.Predict(x) }

// ValueGrad implements ValueGradienter, preserving the wrapped model's fused
// path.
func (n Negated) ValueGrad(x, grad []float64) (float64, []float64) {
	v, g := EnsureValueGrad(n.M).ValueGrad(x, grad)
	linalg.Scale(-1, g)
	return -v, g
}

// PredictVar implements Uncertain when the wrapped model is Uncertain.
func (n Negated) PredictVar(x []float64) (float64, float64) {
	if u, ok := n.M.(Uncertain); ok {
		m, v := u.PredictVar(x)
		return -m, v
	}
	return -n.M.Predict(x), 0
}

// Conservative implements the paper's uncertainty handling (§IV-B.3): it
// replaces F(x) with F̃(x) = E[F(x)] + α·std[F(x)], a conservative estimate
// for minimization under model uncertainty. For non-Uncertain models it
// degrades to the plain prediction.
type Conservative struct {
	M     Model
	Alpha float64
}

// Dim implements Model.
func (c Conservative) Dim() int { return c.M.Dim() }

// Predict implements Model.
func (c Conservative) Predict(x []float64) float64 {
	u, ok := c.M.(Uncertain)
	if !ok {
		return c.M.Predict(x)
	}
	mean, variance := u.PredictVar(x)
	if variance < 0 {
		variance = 0
	}
	return mean + c.Alpha*math.Sqrt(variance)
}

// Exp wraps a model trained on log-scale targets, exponentiating its output:
// Predict(x) = exp(M.Predict(x)). Training positive objectives (latency,
// cost, throughput) in log space keeps extrapolations positive and fits the
// multiplicative noise of cluster measurements.
type Exp struct{ M Model }

// Dim implements Model.
func (e Exp) Dim() int { return e.M.Dim() }

// Predict implements Model.
func (e Exp) Predict(x []float64) float64 { return math.Exp(e.M.Predict(x)) }

// ValueGrad implements ValueGradienter via the chain rule: the inner value
// is computed once and shared between the output and the chain-rule scale.
func (e Exp) ValueGrad(x, grad []float64) (float64, []float64) {
	v, g := EnsureValueGrad(e.M).ValueGrad(x, grad)
	ev := math.Exp(v)
	linalg.Scale(ev, g)
	return ev, g
}

// PredictVar implements Uncertain with the log-normal moments: if
// log F ~ N(μ, σ²) then E[F] = exp(μ+σ²/2) and
// Var[F] = (exp(σ²)−1)·exp(2μ+σ²).
func (e Exp) PredictVar(x []float64) (float64, float64) {
	u, ok := e.M.(Uncertain)
	if !ok {
		return e.Predict(x), 0
	}
	mu, v := u.PredictVar(x)
	if v < 0 {
		v = 0
	}
	mean := math.Exp(mu + v/2)
	variance := (math.Exp(v) - 1) * math.Exp(2*mu+v)
	return mean, variance
}
