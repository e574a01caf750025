package gp

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/model"
)

func makeData(n int, seed int64, noise float64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := []float64{rng.Float64(), rng.Float64()}
		X[i] = x
		y[i] = math.Sin(4*x[0]) + x[1]*x[1] + noise*rng.NormFloat64()
	}
	return X, y
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil, Config{}); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := Fit([][]float64{{1, 2}, {3}}, []float64{1, 2}, Config{}); err == nil {
		t.Fatal("expected error for ragged input")
	}
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Config{}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	// Non-finite data is rejected before training, naming the row, instead
	// of surfacing as a kernel matrix that no jitter makes factorable.
	X, y := makeData(10, 1, 0.01)
	X[3][1] = math.NaN()
	if _, err := Fit(X, y, Config{}); err == nil || !strings.Contains(err.Error(), "row 3") {
		t.Fatalf("NaN input in row 3: error %v; want one naming row 3", err)
	}
	X, y = makeData(10, 1, 0.01)
	y[7] = math.Inf(1)
	if _, err := Fit(X, y, Config{}); err == nil || !strings.Contains(err.Error(), "row 7") {
		t.Fatalf("+Inf target in row 7: error %v; want one naming row 7", err)
	}
}

func TestPosteriorInterpolates(t *testing.T) {
	X, y := makeData(80, 1, 0.01)
	g, err := Fit(X, y, Config{MLEIters: 60})
	if err != nil {
		t.Fatal(err)
	}
	// At training points the posterior mean should be close to the targets.
	sse := 0.0
	for i, x := range X {
		d := g.Predict(x) - y[i]
		sse += d * d
	}
	if rmse := math.Sqrt(sse / float64(len(X))); rmse > 0.1 {
		t.Fatalf("training RMSE = %v, want < 0.1", rmse)
	}
}

func TestGeneralization(t *testing.T) {
	X, y := makeData(120, 2, 0.02)
	g, err := Fit(X, y, Config{})
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := makeData(40, 3, 0)
	sse, tot := 0.0, 0.0
	mean := 0.0
	for _, v := range yt {
		mean += v
	}
	mean /= float64(len(yt))
	for i, x := range Xt {
		d := g.Predict(x) - yt[i]
		sse += d * d
		dv := yt[i] - mean
		tot += dv * dv
	}
	if r2 := 1 - sse/tot; r2 < 0.95 {
		t.Fatalf("test R² = %v, want > 0.95", r2)
	}
}

func TestVarianceGrowsAwayFromData(t *testing.T) {
	// Train only in the left half of the cube; variance must be larger on
	// the far right (the Fig. 3(b) behaviour).
	rng := rand.New(rand.NewSource(4))
	var X [][]float64
	var y []float64
	for i := 0; i < 60; i++ {
		x := []float64{0.4 * rng.Float64(), rng.Float64()}
		X = append(X, x)
		y = append(y, math.Sin(4*x[0])+x[1])
	}
	g, err := Fit(X, y, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, vNear := g.PredictVar([]float64{0.2, 0.5})
	_, vFar := g.PredictVar([]float64{0.95, 0.5})
	if vFar <= vNear {
		t.Fatalf("variance should grow away from data: near %v, far %v", vNear, vFar)
	}
}

func TestMLEImprovesLikelihood(t *testing.T) {
	X, y := makeData(60, 5, 0.05)
	g0, err := Fit(X, y, Config{MLEIters: -1}) // negative: skip via guard below
	if err != nil {
		t.Fatal(err)
	}
	g1, err := Fit(X, y, Config{MLEIters: 80})
	if err != nil {
		t.Fatal(err)
	}
	if g1.LogML < g0.LogML-1e-6 {
		t.Fatalf("MLE reduced log marginal likelihood: %v -> %v", g0.LogML, g1.LogML)
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	X, y := makeData(50, 6, 0.02)
	g, err := Fit(X, y, Config{MLEIters: 40})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const h = 1e-6
	for trial := 0; trial < 30; trial++ {
		x := []float64{rng.Float64(), rng.Float64()}
		_, grad := g.ValueGrad(x, nil)
		for d := 0; d < 2; d++ {
			xp := []float64{x[0], x[1]}
			xm := []float64{x[0], x[1]}
			xp[d] += h
			xm[d] -= h
			num := (g.Predict(xp) - g.Predict(xm)) / (2 * h)
			if math.Abs(grad[d]-num) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("gradient mismatch at %v dim %d: analytic %v numeric %v", x, d, grad[d], num)
			}
		}
	}
}

func TestLengthscalesShrinkForInfluentialDims(t *testing.T) {
	// y depends strongly on x0 and not at all on x1: after MLE, the
	// lengthscale of dim 1 should exceed that of dim 0.
	rng := rand.New(rand.NewSource(8))
	var X [][]float64
	var y []float64
	for i := 0; i < 80; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		X = append(X, x)
		y = append(y, math.Sin(6*x[0]))
	}
	g, err := Fit(X, y, Config{MLEIters: 120})
	if err != nil {
		t.Fatal(err)
	}
	ls := g.Lengthscales()
	if ls[1] <= ls[0] {
		t.Fatalf("ARD failed to discriminate dimensions: %v", ls)
	}
}

func TestImplementsModelInterfaces(t *testing.T) {
	X, y := makeData(20, 9, 0.1)
	g, err := Fit(X, y, Config{MLEIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	var _ model.Model = g
	var _ model.ValueGradienter = g
	var _ model.Uncertain = g
	if g.Dim() != 2 {
		t.Fatal("Dim wrong")
	}
}

func TestConstantTargets(t *testing.T) {
	X := [][]float64{{0.1, 0.1}, {0.5, 0.5}, {0.9, 0.9}}
	y := []float64{3, 3, 3}
	g, err := Fit(X, y, Config{MLEIters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Predict([]float64{0.3, 0.3}); math.Abs(got-3) > 0.1 {
		t.Fatalf("constant GP predicts %v, want ~3", got)
	}
}
