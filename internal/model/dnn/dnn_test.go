package dnn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// makeData samples the smooth 2D target used across the tests.
func makeData(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := []float64{rng.Float64(), rng.Float64()}
		X[i] = x
		y[i] = 3*x[0]*x[0] - 2*x[1] + math.Sin(3*x[0]) + 5
	}
	return X, y
}

func TestFitReducesError(t *testing.T) {
	X, y := makeData(200, 1)
	n := New(2, Config{Hidden: []int{32, 32}, Epochs: 150, Seed: 1})
	mse := n.Fit(X, y)
	if mse > 0.05 {
		t.Fatalf("final standardized MSE = %v, want < 0.05", mse)
	}
	// Out-of-sample prediction quality.
	Xt, yt := makeData(50, 2)
	sse, tot := 0.0, 0.0
	mean := 0.0
	for _, v := range yt {
		mean += v
	}
	mean /= float64(len(yt))
	for i, x := range Xt {
		d := n.Predict(x) - yt[i]
		sse += d * d
		dv := yt[i] - mean
		tot += dv * dv
	}
	r2 := 1 - sse/tot
	if r2 < 0.9 {
		t.Fatalf("test R² = %v, want > 0.9", r2)
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	X, y := makeData(100, 3)
	n := New(2, Config{Hidden: []int{16, 16}, Epochs: 50, Seed: 3})
	n.Fit(X, y)
	rng := rand.New(rand.NewSource(5))
	const h = 1e-6
	for trial := 0; trial < 30; trial++ {
		x := []float64{rng.Float64(), rng.Float64()}
		_, g := n.ValueGrad(x, nil)
		for d := 0; d < 2; d++ {
			xp := []float64{x[0], x[1]}
			xm := []float64{x[0], x[1]}
			xp[d] += h
			xm[d] -= h
			num := (n.Predict(xp) - n.Predict(xm)) / (2 * h)
			// ReLU kinks make exact equality impossible at boundaries; allow
			// a modest tolerance.
			if math.Abs(g[d]-num) > 1e-3*(1+math.Abs(num)) {
				t.Fatalf("gradient mismatch at %v dim %d: %v vs %v", x, d, g[d], num)
			}
		}
	}
}

func TestPredictConcurrentSafe(t *testing.T) {
	X, y := makeData(50, 6)
	n := New(2, Config{Hidden: []int{8}, Epochs: 20, Seed: 6})
	n.Fit(X, y)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				x := []float64{rng.Float64(), rng.Float64()}
				_ = n.Predict(x)
				_, _ = n.ValueGrad(x, nil)
			}
		}(int64(w))
	}
	wg.Wait()
}

func TestPredictVar(t *testing.T) {
	X, y := makeData(100, 7)
	n := New(2, Config{Hidden: []int{16, 16}, Epochs: 50, Seed: 7})
	n.Fit(X, y)
	m, v := n.PredictVar([]float64{0.5, 0.5})
	if v < 0 {
		t.Fatalf("variance = %v, want >= 0", v)
	}
	// MC mean should be near the deterministic prediction.
	if det := n.Predict([]float64{0.5, 0.5}); math.Abs(m-det) > 3*math.Sqrt(v)+1 {
		t.Fatalf("MC mean %v far from deterministic %v (var %v)", m, det, v)
	}
}

func TestIncrementalFit(t *testing.T) {
	X, y := makeData(150, 8)
	n := New(2, Config{Hidden: []int{32}, Epochs: 60, Seed: 8})
	n.Fit(X[:100], y[:100])
	before := testMSE(n, X[100:], y[100:])
	// Fine-tune on the remaining data (the paper's small-trace-update path).
	n.Fit(X[100:], y[100:])
	after := testMSE(n, X[100:], y[100:])
	if after >= before {
		t.Fatalf("incremental fit did not improve held-in error: %v -> %v", before, after)
	}
}

func testMSE(n *Net, X [][]float64, y []float64) float64 {
	s := 0.0
	for i, x := range X {
		d := n.Predict(x) - y[i]
		s += d * d
	}
	return s / float64(len(X))
}

func TestFitPanicsOnBadInput(t *testing.T) {
	n := New(2, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty input")
		}
	}()
	n.Fit(nil, nil)
}

func TestPredictPanicsOnWrongDim(t *testing.T) {
	n := New(2, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input length")
		}
	}()
	n.Predict([]float64{1})
}

func TestConstantTarget(t *testing.T) {
	// Degenerate target std must not divide by zero.
	X := [][]float64{{0, 0}, {0.5, 0.5}, {1, 1}}
	y := []float64{7, 7, 7}
	n := New(2, Config{Hidden: []int{4}, Epochs: 30, Seed: 10})
	n.Fit(X, y)
	if got := n.Predict([]float64{0.3, 0.3}); math.Abs(got-7) > 0.5 {
		t.Fatalf("constant fit predicts %v, want ~7", got)
	}
}
