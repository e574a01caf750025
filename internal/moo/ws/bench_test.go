package ws

import (
	"testing"

	"repro/internal/model"
	"repro/internal/model/analytic"
	"repro/internal/moo"
	"repro/internal/problem"
)

// BenchmarkWSRun measures one full Weighted Sum run — anchors plus one
// scalarized multi-start solve per weight vector — over the paper's 2D toy
// models. The per-iteration cost (one gradient per objective per Adam step)
// is the baselines' hot path; allocs/op tracks whether the inner loops reuse
// scratch or churn. Each iteration runs on a fresh evaluator,
// as every rung of the experiment harness's probe ladder does.
func BenchmarkWSRun(b *testing.B) {
	lat, cost := analytic.PaperExample2D()
	prob := problem.MustNew([]model.Model{lat, cost}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := &Method{Evaluator: problem.NewEvaluator(prob, problem.Options{}), Starts: 4, Iters: 50}
		front, err := m.Run(moo.Options{Points: 5, Seed: 1})
		if err != nil || len(front) == 0 {
			b.Fatalf("run failed: %v (%d points)", err, len(front))
		}
	}
}
