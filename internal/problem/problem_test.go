package problem

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/objective"
	"repro/internal/space"
)

func quad() model.Model {
	return model.Func{D: 2, F: func(x []float64) float64 {
		return (x[0]-0.3)*(x[0]-0.3) + (x[1]-0.7)*(x[1]-0.7)
	}}
}

func lin() model.Model {
	return model.Func{D: 2, F: func(x []float64) float64 { return 2*x[0] + x[1] }}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("want error for no objectives")
	}
	if _, err := New([]model.Model{quad(), model.Func{D: 3, F: func([]float64) float64 { return 0 }}}, nil); err == nil {
		t.Fatal("want error for dim mismatch")
	}
	spc := space.MustNew([]space.Var{{Name: "a", Kind: space.Continuous, Min: 0, Max: 1}})
	if _, err := New([]model.Model{quad()}, spc); err == nil {
		t.Fatal("want error for space dim mismatch")
	}
	p, err := New([]model.Model{quad(), lin()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 2 || len(p.Objectives) != 2 {
		t.Fatalf("dim=%d k=%d", p.Dim(), len(p.Objectives))
	}
}

func TestEvalMatchesModels(t *testing.T) {
	p := MustNew([]model.Model{quad(), lin()}, nil)
	e := NewEvaluator(p, Options{})
	x := []float64{0.25, 0.5}
	f := e.Eval(x)
	if f[0] != quad().Predict(x) || f[1] != lin().Predict(x) {
		t.Fatalf("Eval = %v", f)
	}
	if got := e.Evals(); got != 2 {
		t.Fatalf("Evals = %d, want 2", got)
	}
}

func TestMemoization(t *testing.T) {
	calls := 0
	counting := model.Func{D: 1, F: func(x []float64) float64 { calls++; return x[0] }}
	e := NewEvaluator(MustNew([]model.Model{counting}, nil), Options{})
	x := []float64{0.5}
	f1 := e.Eval(x)
	f2 := e.Eval(x)
	if !reflect.DeepEqual(f1, f2) {
		t.Fatalf("memo changed values: %v vs %v", f1, f2)
	}
	if calls != 1 {
		t.Fatalf("model called %d times, want 1 (memo hit)", calls)
	}
	hits, misses := e.MemoStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("memo stats hits=%d misses=%d", hits, misses)
	}
	if e.Evals() != 1 {
		t.Fatalf("Evals = %d; memo hits must not count", e.Evals())
	}
	// A distinct point is a miss.
	e.Eval([]float64{0.25})
	if calls != 2 {
		t.Fatalf("distinct point not evaluated (calls=%d)", calls)
	}
}

func TestMemoDisabled(t *testing.T) {
	calls := 0
	counting := model.Func{D: 1, F: func(x []float64) float64 { calls++; return x[0] }}
	e := NewEvaluator(MustNew([]model.Model{counting}, nil), Options{MemoCap: -1})
	x := []float64{0.5}
	e.Eval(x)
	e.Eval(x)
	if calls != 2 {
		t.Fatalf("MemoCap<0 must disable memoization (calls=%d)", calls)
	}
}

func TestMemoCapFlush(t *testing.T) {
	e := NewEvaluator(MustNew([]model.Model{lin()}, nil), Options{MemoCap: 4})
	for i := 0; i < 32; i++ {
		e.Eval([]float64{float64(i) / 32, 0})
	}
	// The cache was flushed along the way but stays bounded and functional.
	e.memoMu.RLock()
	size := len(e.memo)
	e.memoMu.RUnlock()
	if size > 4 {
		t.Fatalf("memo size %d exceeds cap", size)
	}
	x := []float64{0.123, 0}
	if f := e.Eval(x); f[0] != lin().Predict(x) {
		t.Fatal("post-flush eval wrong")
	}
}

// evalBatchAt runs e.EvalBatch under GOMAXPROCS procs, so its points spread
// over up to procs goroutines whatever the machine.
func evalBatchAt(procs int, e *Evaluator, xs [][]float64) []objective.Point {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return e.EvalBatch(xs)
}

func TestEvalBatchDeterministicOrder(t *testing.T) {
	p := MustNew([]model.Model{quad(), lin()}, nil)
	xs := make([][]float64, 100)
	for i := range xs {
		xs[i] = []float64{float64(i) / 100, float64(99-i) / 100}
	}
	a := evalBatchAt(1, NewEvaluator(p, Options{MemoCap: -1}), xs)
	b := evalBatchAt(8, NewEvaluator(p, Options{MemoCap: -1}), xs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("EvalBatch order depends on GOMAXPROCS")
	}
	if len(a) != len(xs) {
		t.Fatalf("batch size %d", len(a))
	}
}

func TestEvalBatchConcurrentWithMemo(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	p := MustNew([]model.Model{quad(), lin()}, nil)
	e := NewEvaluator(p, Options{})
	xs := make([][]float64, 64)
	for i := range xs {
		xs[i] = []float64{float64(i%8) / 8, 0.5} // heavy key repetition
	}
	var wg sync.WaitGroup
	outs := make([][]objective.Point, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g] = e.EvalBatch(xs)
		}(g)
	}
	wg.Wait()
	for g := 1; g < 4; g++ {
		if !reflect.DeepEqual(outs[0], outs[g]) {
			t.Fatal("concurrent EvalBatch results differ")
		}
	}
}

func TestObjValueGradFused(t *testing.T) {
	p := MustNew([]model.Model{quad(), lin()}, nil)
	e := NewEvaluator(p, Options{})
	x := []float64{0.4, 0.6}
	buf := make([]float64, 2)
	v, g := e.ObjValueGrad(0, x, buf)
	if v != quad().Predict(x) {
		t.Fatalf("fused value %v", v)
	}
	if &g[0] != &buf[0] {
		t.Fatal("fused path must reuse the caller's buffer")
	}
	// Numeric gradient of (x0-0.3)^2+(x1-0.7)^2 at (0.4, 0.6).
	if math.Abs(g[0]-0.2) > 1e-3 || math.Abs(g[1]+0.2) > 1e-3 {
		t.Fatalf("gradient %v", g)
	}
}

type uncertainQuad struct{ model.Model }

func (u uncertainQuad) PredictVar(x []float64) (float64, float64) {
	return u.Predict(x), 0.04 // std 0.2 everywhere
}

func TestConservativeAlpha(t *testing.T) {
	m := uncertainQuad{quad()}
	e := NewEvaluator(MustNew([]model.Model{m}, nil), Options{Alpha: 3})
	x := []float64{0.3, 0.7}
	want := quad().Predict(x) + 3*0.2
	if f := e.Eval(x); math.Abs(f[0]-want) > 1e-12 {
		t.Fatalf("conservative Eval = %v, want %v", f[0], want)
	}
	v, _ := e.ObjValueGrad(0, x, nil)
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("conservative ObjValueGrad value = %v, want %v", v, want)
	}
}

func TestObjectiveView(t *testing.T) {
	p := MustNew([]model.Model{quad(), lin()}, nil)
	e := NewEvaluator(p, Options{})
	o := e.Objective(1)
	x := []float64{0.2, 0.9}
	if o.Dim() != 2 || o.Predict(x) != lin().Predict(x) {
		t.Fatal("objective view mismatch")
	}
	v, g := o.ValueGrad(x, nil)
	if v != lin().Predict(x) || len(g) != 2 {
		t.Fatal("objective view ValueGrad mismatch")
	}
	if e.Evals() == 0 {
		t.Fatal("view calls must count")
	}
}
