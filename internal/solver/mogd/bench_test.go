package mogd

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/model/dnn"
	"repro/internal/solver"
)

// benchSolver builds a 2-objective CO problem over DNN models — the solver
// configuration behind the paper's PF-AP timing claims (§VI-C): every Adam
// iteration evaluates each model's value and input gradient.
func benchSolver(b *testing.B, cfg Config) *Solver {
	b.Helper()
	lat := dnn.New(12, dnn.Config{Hidden: []int{64, 64}, Seed: 1})
	cost := dnn.New(12, dnn.Config{Hidden: []int{64, 64}, Seed: 2})
	return newSolver(b, []model.Model{lat, cost}, nil, cfg)
}

func benchCO() solver.CO {
	return solver.CO{
		Target: 0,
		Lo:     []float64{math.Inf(-1), math.Inf(-1)},
		Hi:     []float64{math.Inf(1), math.Inf(1)},
	}
}

// BenchmarkMOGDSolve is the headline solver benchmark: one CO probe with the
// default multi-start and iteration budget.
func BenchmarkMOGDSolve(b *testing.B) {
	s := benchSolver(b, Config{Seed: 1})
	co := benchCO()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Solve(co, int64(i)); !ok {
			b.Fatal("no solution")
		}
	}
}

// BenchmarkMOGDSolveBatch is the PF-AP fan-out: a batch of l^k = 9 CO
// problems solved concurrently.
func BenchmarkMOGDSolveBatch(b *testing.B) {
	s := benchSolver(b, Config{Seed: 1})
	cos := make([]solver.CO, 9)
	for i := range cos {
		cos[i] = benchCO()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := s.SolveBatch(cos, int64(i))
		if len(out) != len(cos) {
			b.Fatal("bad batch")
		}
	}
}
