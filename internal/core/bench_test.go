package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/model/dnn"
	"repro/internal/problem"
	"repro/internal/solver/mogd"
	"repro/internal/spark"
)

// coldProblem is the server's objective shape for a DNN workload: a DNN
// latency model trained in log scale over the 12-knob batch space, and the
// exact cores objective, which decodes the configuration and has no analytic
// gradient. The latency net is fitted once to a synthetic surface; training
// is not part of what the cold benchmarks time.
func coldProblem(b *testing.B) *problem.Problem {
	b.Helper()
	spc := spark.BatchSpace()
	rng := rand.New(rand.NewSource(1))
	X := make([][]float64, 64)
	y := make([]float64, len(X))
	for i := range X {
		x := make([]float64, spc.Dim())
		for d := range x {
			x[d] = rng.Float64()
		}
		rx, err := spc.Round(x)
		if err != nil {
			b.Fatal(err)
		}
		X[i] = rx
		y[i] = math.Log(400/(1+6*rx[1]*rx[2]) + 40*(rx[3]-0.6)*(rx[3]-0.6) + 25*(rx[0]-0.4)*(rx[0]-0.4))
	}
	net := dnn.New(spc.Dim(), dnn.Config{Hidden: []int{64, 64}, Epochs: 40, Seed: 1})
	net.Fit(X, y)
	return problem.MustNew([]model.Model{model.Exp{M: net}, spark.CoresModel(spc)}, spc)
}

// benchCold runs one PF loop per iteration on a fresh solver over a fresh
// evaluator — and so an empty evaluator memo and an empty near-start store —
// configured like the service's optimizer (default multi-start and iteration
// budget, near warm starts): the cold path of a new job's first /optimize.
func benchCold(b *testing.B, parallel bool) {
	prob := coldProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := mogd.New(problem.NewEvaluator(prob, problem.Options{}), mogd.Config{Seed: 1, NearStarts: true})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := NewRun(s, parallel, Options{Seed: 1}).Expand(12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialCold runs PF-AS cold over the server's objective shape.
func BenchmarkSequentialCold(b *testing.B) { benchCold(b, false) }

// BenchmarkParallelCold runs PF-AP cold over the server's objective shape.
func BenchmarkParallelCold(b *testing.B) { benchCold(b, true) }
