// Package feature implements the model server's feature-engineering steps
// (§V "Model Server" step 2): constant-feature filtering, normalization, and
// knob selection that mixes a LASSO-based importance ranking (OtterTune's
// practice, Appendix C-A) with a domain-knowledge preference list ("Spark
// recommendations"), yielding the ~10–12 most important knobs the MOO runs
// over.
package feature

import (
	"math"
	"sort"
)

// FilterConstant returns the indices of columns of X that are not constant —
// constant features carry no signal and destabilize standardization.
func FilterConstant(X [][]float64) []int {
	if len(X) == 0 {
		return nil
	}
	var keep []int
	for j := range X[0] {
		first := X[0][j]
		constant := true
		for _, row := range X {
			if row[j] != first {
				constant = false
				break
			}
		}
		if !constant {
			keep = append(keep, j)
		}
	}
	return keep
}

// Standardize centers and scales each column of X to zero mean and unit
// variance, returning the transformed copy with the per-column means and
// stds. Zero-variance columns get std 1.
func Standardize(X [][]float64) (out [][]float64, means, stds []float64) {
	if len(X) == 0 {
		return nil, nil, nil
	}
	d := len(X[0])
	means = make([]float64, d)
	stds = make([]float64, d)
	n := float64(len(X))
	for j := 0; j < d; j++ {
		for _, row := range X {
			means[j] += row[j]
		}
		means[j] /= n
		for _, row := range X {
			dv := row[j] - means[j]
			stds[j] += dv * dv
		}
		stds[j] = math.Sqrt(stds[j] / n)
		if stds[j] < 1e-12 {
			stds[j] = 1
		}
	}
	out = make([][]float64, len(X))
	for i, row := range X {
		r := make([]float64, d)
		for j := 0; j < d; j++ {
			r[j] = (row[j] - means[j]) / stds[j]
		}
		out[i] = r
	}
	return out, means, stds
}

// Lasso fits standardized linear regression with an L1 penalty by cyclic
// coordinate descent:
//
//	min_β  (1/2n)·‖y − Xβ‖² + λ·‖β‖₁
//
// X must be standardized (see Standardize); y is centered internally. The
// returned coefficients are in the standardized feature scale.
func Lasso(X [][]float64, y []float64, lambda float64, iters int) []float64 {
	n := len(X)
	if n == 0 {
		return nil
	}
	d := len(X[0])
	ym := 0.0
	for _, v := range y {
		ym += v
	}
	ym /= float64(n)
	yc := make([]float64, n)
	for i, v := range y {
		yc[i] = v - ym
	}
	beta := make([]float64, d)
	resid := append([]float64(nil), yc...)
	// Per-feature squared norms (≈ n for standardized features).
	norm2 := make([]float64, d)
	for j := 0; j < d; j++ {
		for i := 0; i < n; i++ {
			norm2[j] += X[i][j] * X[i][j]
		}
		if norm2[j] < 1e-12 {
			norm2[j] = 1e-12
		}
	}
	for it := 0; it < iters; it++ {
		maxDelta := 0.0
		for j := 0; j < d; j++ {
			// rho = X_j · (resid + X_j·beta_j)
			rho := 0.0
			for i := 0; i < n; i++ {
				rho += X[i][j] * (resid[i] + X[i][j]*beta[j])
			}
			newBeta := softThreshold(rho/float64(n), lambda) / (norm2[j] / float64(n))
			if newBeta != beta[j] {
				delta := newBeta - beta[j]
				for i := 0; i < n; i++ {
					resid[i] -= X[i][j] * delta
				}
				if ad := math.Abs(delta); ad > maxDelta {
					maxDelta = ad
				}
				beta[j] = newBeta
			}
		}
		if maxDelta < 1e-8 {
			break
		}
	}
	return beta
}

func softThreshold(v, lambda float64) float64 {
	switch {
	case v > lambda:
		return v - lambda
	case v < -lambda:
		return v + lambda
	default:
		return 0
	}
}

// LassoPathOrder ranks features by the order in which they enter the LASSO
// path as λ decreases (the OtterTune importance ranking): earlier entry
// means more important. Features that never enter are ranked last by final
// |β|.
func LassoPathOrder(X [][]float64, y []float64) []int {
	if len(X) == 0 {
		return nil
	}
	d := len(X[0])
	Xs, _, _ := Standardize(X)
	// λ_max: smallest λ that zeroes every coefficient.
	n := float64(len(X))
	lambdaMax := 0.0
	ym := 0.0
	for _, v := range y {
		ym += v
	}
	ym /= n
	for j := 0; j < d; j++ {
		c := 0.0
		for i := range Xs {
			c += Xs[i][j] * (y[i] - ym)
		}
		if a := math.Abs(c) / n; a > lambdaMax {
			lambdaMax = a
		}
	}
	if lambdaMax == 0 {
		order := make([]int, d)
		for i := range order {
			order[i] = i
		}
		return order
	}
	entered := make([]int, d) // path step at which the feature entered (0 = never)
	var lastBeta []float64
	steps := 30
	for s := 1; s <= steps; s++ {
		lambda := lambdaMax * math.Pow(0.001/1.0, float64(s)/float64(steps))
		beta := Lasso(Xs, y, lambda, 200)
		for j := 0; j < d; j++ {
			if entered[j] == 0 && math.Abs(beta[j]) > 1e-9 {
				entered[j] = s
			}
		}
		lastBeta = beta
	}
	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ja, jb := order[a], order[b]
		ea, eb := entered[ja], entered[jb]
		if ea == 0 {
			ea = steps + 1
		}
		if eb == 0 {
			eb = steps + 1
		}
		if ea != eb {
			return ea < eb
		}
		return math.Abs(lastBeta[ja]) > math.Abs(lastBeta[jb])
	})
	return order
}

// SelectKnobs picks k knob indices by mixing the LASSO path ranking over
// (X, y) with a domain-knowledge preferred list (§V: "mixing results from a
// LASSO-based selection method and Spark recommendations"). Preferred knobs
// occupy up to half the budget; LASSO fills the rest in path order. The picks
// are returned in selection order.
func SelectKnobs(X [][]float64, y []float64, preferred []int, k int) []int {
	if k <= 0 {
		return nil
	}
	chosen := make([]int, 0, k)
	seen := map[int]bool{}
	half := (k + 1) / 2
	for _, p := range preferred {
		if len(chosen) >= half {
			break
		}
		if !seen[p] {
			chosen = append(chosen, p)
			seen[p] = true
		}
	}
	for _, j := range LassoPathOrder(X, y) {
		if len(chosen) >= k {
			break
		}
		if !seen[j] {
			chosen = append(chosen, j)
			seen[j] = true
		}
	}
	return chosen
}
