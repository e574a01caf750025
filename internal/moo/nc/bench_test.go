package nc

import (
	"testing"

	"repro/internal/model"
	"repro/internal/model/analytic"
	"repro/internal/moo"
	"repro/internal/problem"
)

// BenchmarkNCRun measures one full Normalized Normal Constraint run — anchors
// plus one penalty-method sub-problem per plane point — over the paper's 2D
// toy models. Each sub-problem iteration needs every objective's value and
// gradient, so this benchmark tracks both the fused-evaluation win and the
// inner-loop allocation discipline. Each iteration runs on a fresh evaluator,
// as every rung of the experiment harness's probe ladder does.
func BenchmarkNCRun(b *testing.B) {
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
