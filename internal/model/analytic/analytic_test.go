package analytic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
)

func defaultLatency() Latency {
	return Latency{D: 2, MaxExec: 14, MaxCores: 4, Serial: 5, Work: 600, Shuffle: 2}
}

func TestLatencyMonotoneInCores(t *testing.T) {
	l := defaultLatency()
	// In the Work-dominated regime, more cores means lower latency.
	low := l.Predict([]float64{0.1, 0.1})
	high := l.Predict([]float64{0.9, 0.9})
	if high >= low {
		t.Fatalf("latency should fall with cores: %v -> %v", low, high)
	}
}

func TestLatencyGradientMatchesNumeric(t *testing.T) {
	l := defaultLatency()
	num := model.NumericGradient{M: l}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 50; i++ {
		x := []float64{0.05 + 0.9*rng.Float64(), 0.05 + 0.9*rng.Float64()}
		_, a := l.ValueGrad(x, nil)
		_, n := num.ValueGrad(x, nil)
		for d := range a {
			if math.Abs(a[d]-n[d]) > 1e-3*(1+math.Abs(n[d])) {
				t.Fatalf("gradient mismatch at %v dim %d: analytic %v numeric %v", x, d, a[d], n[d])
			}
		}
	}
}

func TestCoreCost(t *testing.T) {
	c := CoreCost{D: 2, MaxExec: 14, MaxCores: 4}
	if got := c.Predict([]float64{0, 0}); got != 1 {
		t.Fatalf("min cost = %v, want 1", got)
	}
	if got := c.Predict([]float64{1, 1}); got != 56 {
		t.Fatalf("max cost = %v, want 56", got)
	}
	num := model.NumericGradient{M: c}
	x := []float64{0.4, 0.6}
	_, a := c.ValueGrad(x, nil)
	_, n := num.ValueGrad(x, nil)
	for d := range a {
		if math.Abs(a[d]-n[d]) > 1e-3*(1+math.Abs(n[d])) {
			t.Fatalf("CoreCost gradient mismatch: %v vs %v", a, n)
		}
	}
}

func TestCPUHourCost(t *testing.T) {
	l := defaultLatency()
	c := CPUHourCost{Lat: l}
	x := []float64{0.5, 0.5}
	want := l.Predict(x) * l.Cores(x) / 3600
	if got := c.Predict(x); math.Abs(got-want) > 1e-12 {
		t.Fatalf("CPUHourCost = %v, want %v", got, want)
	}
	if c.Dim() != 2 {
		t.Fatal("CPUHourCost dim wrong")
	}
}

func TestPaperExample(t *testing.T) {
	lat, cost := PaperExample()
	// At 1 core: latency 2400, cost 1. At 24 cores: latency 100, cost 24.
	if got := lat.Predict([]float64{0}); got != 2400 {
		t.Fatalf("lat(1 core) = %v", got)
	}
	if got := lat.Predict([]float64{1}); got != 100 {
		t.Fatalf("lat(24 cores) = %v", got)
	}
	if got := cost.Predict([]float64{1}); got != 24 {
		t.Fatalf("cost(24 cores) = %v", got)
	}
	// Latency and cost genuinely conflict along the interior.
	l1, c1 := lat.Predict([]float64{0.2}), cost.Predict([]float64{0.2})
	l2, c2 := lat.Predict([]float64{0.8}), cost.Predict([]float64{0.8})
	if !(l2 < l1 && c2 > c1) {
		t.Fatal("expected latency/cost tradeoff")
	}
}

func TestPaperExample2D(t *testing.T) {
	lat, cost := PaperExample2D()
	// Max cores = 8*3 = 24 capped at 24.
	if got := cost.Predict([]float64{1, 1}); got != 24 {
		t.Fatalf("cost(max) = %v, want 24", got)
	}
	if got := lat.Predict([]float64{1, 1}); got != 100 {
		t.Fatalf("lat(max) = %v, want 100", got)
	}
	if got := lat.Predict([]float64{0, 0}); got != 2400 {
		t.Fatalf("lat(min) = %v, want 2400", got)
	}
}
