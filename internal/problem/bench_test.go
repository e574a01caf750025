package problem

import (
	"testing"

	"repro/internal/model"
	"repro/internal/model/dnn"
	"repro/internal/telemetry"
)

// benchEvaluator builds a 2-objective evaluator over DNN models — the same
// model class behind the solver hot-path numbers in BENCH_solver.json.
func benchEvaluator(b *testing.B, opts Options) *Evaluator {
	b.Helper()
	lat := dnn.New(12, dnn.Config{Hidden: []int{64, 64}, Seed: 1})
	cost := dnn.New(12, dnn.Config{Hidden: []int{64, 64}, Seed: 2})
	p, err := New([]model.Model{lat, cost}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return NewEvaluator(p, opts)
}

func benchPoint() []float64 {
	x := make([]float64, 12)
	for d := range x {
		x[d] = float64(d+1) / 13
	}
	return x
}

// BenchmarkEvaluatorMemoHit measures a repeated-point evaluation: the steady
// state of lattice-rounded candidate evaluation (key hash + map lookup +
// vector copy, no model passes).
func BenchmarkEvaluatorMemoHit(b *testing.B) {
	e := benchEvaluator(b, Options{})
	x := benchPoint()
	f := e.Eval(x) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvalInto(x, f)
	}
}

// BenchmarkEvaluatorMemoMiss measures a cold-point evaluation with the memo
// enabled: k model passes plus cache insertion.
func BenchmarkEvaluatorMemoMiss(b *testing.B) {
	e := benchEvaluator(b, Options{MemoCap: 1 << 20})
	x := benchPoint()
	f := e.Eval(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x[0] = float64(i%1000000) * 1e-9 // unique points, cache always misses
		e.EvalInto(x, f)
	}
}

// BenchmarkEvalBatch measures the par.For batch path on a 64-point batch of
// distinct points (memo disabled so the model cost is visible). par.For runs
// on up to GOMAXPROCS goroutines, so -cpu 1 gives the serial scaling
// reference.
func BenchmarkEvalBatch(b *testing.B) {
	e := benchEvaluator(b, Options{MemoCap: -1})
	xs := make([][]float64, 64)
	for i := range xs {
		x := benchPoint()
		x[0] = float64(i) / 64
		xs[i] = x
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := e.EvalBatch(xs); len(out) != len(xs) {
			b.Fatal("bad batch")
		}
	}
}

// BenchmarkEvaluatorValueGrad measures the fused value+gradient hot path
// without telemetry — the baseline for the telemetry-overhead comparison.
func BenchmarkEvaluatorValueGrad(b *testing.B) {
	e := benchEvaluator(b, Options{})
	x := benchPoint()
	grad := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ObjValueGrad(0, x, grad)
	}
}

// BenchmarkEvaluatorValueGradTelemetry is the same hot path with the full
// telemetry stack attached at the default sampling level (LevelRun). The
// acceptance bar: identical allocation profile (0 allocs/op) — counting is
// atomic mirroring and trace events never fire per model pass.
func BenchmarkEvaluatorValueGradTelemetry(b *testing.B) {
	e := benchEvaluator(b, Options{Telemetry: telemetry.New(), RunID: "bench"})
	x := benchPoint()
	grad := make([]float64, len(x))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ObjValueGrad(0, x, grad)
	}
}

// BenchmarkEvaluatorMemoHitTelemetry mirrors BenchmarkEvaluatorMemoHit with
// telemetry attached, guarding the memo-hit fast path.
func BenchmarkEvaluatorMemoHitTelemetry(b *testing.B) {
	e := benchEvaluator(b, Options{Telemetry: telemetry.New(), RunID: "bench"})
	x := benchPoint()
	f := e.Eval(x) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EvalInto(x, f)
	}
}
