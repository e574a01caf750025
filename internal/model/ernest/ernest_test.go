package ernest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/space"
	"repro/internal/spark"
)

// identityCores treats the single encoded dimension as cores 1..24.
func identityCores(x []float64) float64 { return 1 + 23*x[0] }

func TestFitRecoversSyntheticCoefficients(t *testing.T) {
	// Generate data from a known Ernest model.
	want := [4]float64{5, 600, 2, 0.3}
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64()}
		c := identityCores(x)
		f := features(c)
		v := 0.0
		for j := range f {
			v += want[j] * f[j]
		}
		X = append(X, x)
		y = append(y, v*(1+0.01*rng.NormFloat64()))
	}
	m, err := Fit(X, y, 1, identityCores)
	if err != nil {
		t.Fatal(err)
	}
	// Prediction quality matters more than exact coefficient recovery
	// (the basis is correlated).
	for c := 1.0; c <= 24; c += 1 {
		x := []float64{(c - 1) / 23}
		f := features(c)
		truth := 0.0
		for j := range f {
			truth += want[j] * f[j]
		}
		if got := m.Predict(x); math.Abs(got-truth) > 0.05*truth {
			t.Fatalf("cores=%v: predict %v, want %v", c, got, truth)
		}
	}
	// Non-negativity.
	for j, th := range m.Theta {
		if th < 0 {
			t.Fatalf("theta[%d] = %v < 0", j, th)
		}
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, nil, 1, identityCores); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := Fit([][]float64{{0}}, []float64{1, 2}, 1, identityCores); err == nil {
		t.Fatal("expected error for length mismatch")
	}
}

func TestFitOnSimulatorTraces(t *testing.T) {
	// Fit the handcrafted model to simulated traces of a compute-bound job
	// where only the resource knobs vary — the regime Ernest targets.
	spc := spark.BatchSpace()
	df := spark.Chain("ernest-test", 6e6, 100,
		spark.Operator{Kind: spark.OpScan, Selectivity: 1, CostPerRow: 1.5},
		spark.Operator{Kind: spark.OpExchange, Selectivity: 1, CostPerRow: 0.1},
		spark.Operator{Kind: spark.OpAggregate, Selectivity: 0.01, CostPerRow: 0.5, MemPerRow: 32},
	)
	cl := spark.DefaultCluster()
	cl.NoiseStd = 0.02
	cores := func(x []float64) float64 {
		vals, err := spc.Decode(x)
		if err != nil {
			return 1
		}
		inst, _ := spc.Get(vals, spark.KnobInstances)
		c, _ := spc.Get(vals, spark.KnobCores)
		return inst * c
	}
	conf := spark.DefaultBatchConf(spc)
	var X [][]float64
	var y []float64
	for inst := 2; inst <= 14; inst += 2 {
		for cpe := 1; cpe <= 4; cpe++ {
			conf[spc.Lookup(spark.KnobInstances)] = space.Value(inst)
			conf[spc.Lookup(spark.KnobCores)] = space.Value(cpe)
			x, err := spc.Encode(conf)
			if err != nil {
				t.Fatal(err)
			}
			m, err := spark.Run(df, spc, conf, cl, 1)
			if err != nil {
				t.Fatal(err)
			}
			X = append(X, x)
			y = append(y, m.LatencySec)
		}
	}
	m, err := Fit(X, y, spc.Dim(), cores)
	if err != nil {
		t.Fatal(err)
	}
	// WMAPE over the training sweep.
	num, den := 0.0, 0.0
	for i := range X {
		num += math.Abs(m.Predict(X[i]) - y[i])
		den += y[i]
	}
	if w := num / den; w > 0.15 {
		t.Fatalf("Ernest fit WMAPE = %v, want < 0.15", w)
	}
	// Fitted model preserves the diminishing-returns shape.
	lat := func(c float64) float64 {
		return m.Predict([]float64{0})*0 + m.Theta[0] + m.Theta[1]/c + m.Theta[2]*math.Log2(1+c) + m.Theta[3]*c
	}
	if !(lat(4) > lat(16)) {
		t.Fatalf("fitted model not decreasing over the scaling regime: lat(4)=%v lat(16)=%v", lat(4), lat(16))
	}
}

func TestGradientLength(t *testing.T) {
	m := &Model{Theta: [4]float64{1, 100, 1, 0.1}, Cores: identityCores, D: 1}
	_, g := m.ValueGrad([]float64{0.5}, nil)
	if len(g) != 1 {
		t.Fatalf("gradient length %d", len(g))
	}
	// Latency falls with cores in the work-dominated regime: negative slope.
	if g[0] >= 0 {
		t.Fatalf("gradient = %v, want negative", g[0])
	}
}
