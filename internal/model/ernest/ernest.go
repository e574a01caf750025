// Package ernest implements the handcrafted performance-model family the
// paper cites as its first modeling option (§II-B: "Handcrafted models:
// domain knowledge and workload profiling were used to develop specific
// regression models for the Spark platform [36]", i.e. Ernest, NSDI'16).
//
// The model predicts latency from the allocated parallelism with the Ernest
// feature basis over the total core count c:
//
//	latency(x) = θ₀ + θ₁·(1/c) + θ₂·log₂(1+c) + θ₃·c
//
// θ₀ captures the serial fraction, θ₁ the parallelizable work, θ₂
// tree-structured aggregation/shuffle overheads, and θ₃ per-core fixed
// costs. Coefficients are fitted by non-negative least squares (projected
// gradient), which is what keeps the model physically interpretable — every
// term can only add time.
package ernest

import (
	"errors"
	"math"

	"repro/internal/model"
)

// CoresFunc extracts the total core count from an encoded configuration —
// typically the product of the executor-instances and cores-per-executor
// knobs.
type CoresFunc func(x []float64) float64

// Model is a fitted Ernest-style latency model.
type Model struct {
	// Theta are the non-negative coefficients of the four basis terms.
	Theta [4]float64
	// Cores extracts the core count from an encoded configuration.
	Cores CoresFunc
	// D is the encoded decision-space dimensionality.
	D int
}

// features evaluates the Ernest basis at a core count.
func features(c float64) [4]float64 {
	if c < 1 {
		c = 1
	}
	return [4]float64{1, 1 / c, math.Log2(1 + c), c}
}

// Dim implements model.Model.
func (m *Model) Dim() int { return m.D }

// Predict implements model.Model.
func (m *Model) Predict(x []float64) float64 {
	f := features(m.Cores(x))
	s := 0.0
	for i := range f {
		s += m.Theta[i] * f[i]
	}
	return s
}

// ValueGrad implements model.ValueGradienter via finite differences (the
// cores extractor is opaque; the kinks of rounding make this a subgradient).
func (m *Model) ValueGrad(x, grad []float64) (float64, []float64) {
	return model.NumericGradient{M: m}.ValueGrad(x, grad)
}

// Fit estimates the coefficients from observed (configuration, latency)
// pairs by non-negative least squares: minimize ‖Aθ − y‖² subject to θ ≥ 0,
// solved with projected gradient descent using the Lipschitz step 1/‖AᵀA‖.
func Fit(X [][]float64, y []float64, dim int, cores CoresFunc) (*Model, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("ernest: need equal-length non-empty X and y")
	}
	n := len(X)
	// Design matrix rows.
	A := make([][4]float64, n)
	for i, x := range X {
		A[i] = features(cores(x))
	}
	// Normalize columns for conditioning.
	var scale [4]float64
	for j := 0; j < 4; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += A[i][j] * A[i][j]
		}
		scale[j] = math.Sqrt(s / float64(n))
		if scale[j] < 1e-12 {
			scale[j] = 1
		}
		for i := 0; i < n; i++ {
			A[i][j] /= scale[j]
		}
	}
	// AᵀA and Aᵀy.
	var ata [4][4]float64
	var aty [4]float64
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			aty[j] += A[i][j] * y[i]
			for k := 0; k < 4; k++ {
				ata[j][k] += A[i][j] * A[i][k]
			}
		}
	}
	// Lipschitz constant upper bound: trace of AᵀA.
	lip := 0.0
	for j := 0; j < 4; j++ {
		lip += ata[j][j]
	}
	if lip < 1e-12 {
		lip = 1
	}
	step := 1 / lip
	var theta [4]float64
	for it := 0; it < 2000; it++ {
		var grad [4]float64
		maxStep := 0.0
		for j := 0; j < 4; j++ {
			g := -aty[j]
			for k := 0; k < 4; k++ {
				g += ata[j][k] * theta[k]
			}
			grad[j] = g
		}
		for j := 0; j < 4; j++ {
			nj := theta[j] - step*grad[j]
			if nj < 0 {
				nj = 0
			}
			if d := math.Abs(nj - theta[j]); d > maxStep {
				maxStep = d
			}
			theta[j] = nj
		}
		if maxStep < 1e-10 {
			break
		}
	}
	// Undo the column scaling.
	for j := 0; j < 4; j++ {
		theta[j] /= scale[j]
	}
	m := &Model{Theta: theta, Cores: cores, D: dim}
	return m, nil
}

var _ model.ValueGradienter = (*Model)(nil)
