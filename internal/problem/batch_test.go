package problem

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/model/dnn"
	"repro/internal/model/gp"
	"repro/internal/objective"
)

func batchTestEvaluator(t testing.TB, opts Options) *Evaluator {
	t.Helper()
	lat := dnn.New(6, dnn.Config{Hidden: []int{16, 16}, Seed: 1})
	cost := dnn.New(6, dnn.Config{Hidden: []int{16, 16}, Seed: 2})
	p, err := New([]model.Model{lat, cost}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewEvaluator(p, opts)
}

// TestEvalBatchMatrixMatchesScalar checks the matrix path against per-point
// Eval bit-for-bit, through a mix of memo hits, misses, and duplicates.
func TestEvalBatchMatrixMatchesScalar(t *testing.T) {
	e := batchTestEvaluator(t, Options{})
	if !e.allBatch {
		t.Fatal("DNN evaluator should be batch-capable")
	}
	rng := rand.New(rand.NewSource(4))
	xs := make([][]float64, 9)
	for i := range xs {
		x := make([]float64, e.Dim())
		for d := range x {
			x[d] = rng.Float64()
		}
		xs[i] = x
	}
	xs[7] = xs[2] // duplicate inside the batch
	e.Eval(xs[0]) // pre-warm one memo entry
	out := e.EvalBatch(xs)
	for i, x := range xs {
		want := batchTestEvaluator(t, Options{}).Eval(x)
		for j := range want {
			if out[i][j] != want[j] {
				t.Fatalf("point %d obj %d: batch %v, scalar %v", i, j, out[i][j], want[j])
			}
		}
	}
	// Second call is all memo hits: no new model passes.
	evals := e.Evals()
	out2 := e.EvalBatch(xs)
	if e.Evals() != evals {
		t.Fatalf("memo-hit batch performed %d model passes", e.Evals()-evals)
	}
	for i := range out {
		for j := range out[i] {
			if out2[i][j] != out[i][j] {
				t.Fatalf("memo-hit batch changed point %d obj %d", i, j)
			}
		}
	}
}

// TestObjForwardBatchLazyGrad checks the deferred-gradient seam: values match
// ObjValueGrad exactly, the gradient continuation reproduces the scalar
// gradients, and skipping Grad performs no backward work (observable as no
// extra model passes beyond the forward accounting).
func TestObjForwardBatchLazyGrad(t *testing.T) {
	e := batchTestEvaluator(t, Options{})
	rng := rand.New(rand.NewSource(8))
	const rows = 5
	X := linalg.NewMatrix(rows, e.Dim())
	for i := range X.Data {
		X.Data[i] = rng.Float64()
	}
	for j := 0; j < e.NumObjectives(); j++ {
		y := make([]float64, rows)
		G := linalg.NewMatrix(rows, e.Dim())
		h := e.ObjForwardBatch(j, X, y)
		h.Grad(G)
		h.Done()
		grad := make([]float64, e.Dim())
		for r := 0; r < rows; r++ {
			v, g := e.ObjValueGrad(j, X.Row(r), grad)
			if y[r] != v {
				t.Fatalf("obj %d row %d: batch value %v, scalar %v", j, r, y[r], v)
			}
			for d := range g {
				if G.At(r, d) != g[d] {
					t.Fatalf("obj %d row %d grad[%d]: batch %v, scalar %v", j, r, d, G.At(r, d), g[d])
				}
			}
		}
	}
	// Forward-only: Done without Grad is legal and leaves G untouched.
	y := make([]float64, rows)
	h := e.ObjForwardBatch(0, X, y)
	h.Done()
}

// TestEvalBatchFallbackPath pins the par.For path for evaluators over
// models without a native batched pass.
func TestEvalBatchFallbackPath(t *testing.T) {
	sum := model.Func{D: 3, F: func(x []float64) float64 { return x[0] + 2*x[1] - x[2] }}
	p, err := New([]model.Model{sum}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(p, Options{})
	if e.allBatch {
		t.Fatal("Func objective must not be considered batch-capable")
	}
	xs := [][]float64{{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}}
	out := e.EvalBatch(xs)
	for i, x := range xs {
		if want := sum.F(x); out[i][0] != want {
			t.Fatalf("point %d: %v != %v", i, out[i][0], want)
		}
	}
}

// evalRowsObjectives covers every model shape the MOGD candidate batch sees:
// a native batched DNN, a GP (no batched pass), a plain Func, the Exp and
// Negated wrappers, and a stage-routed sum.
func evalRowsObjectives(t *testing.T) []model.Model {
	t.Helper()
	const d = 6
	rng := rand.New(rand.NewSource(2))
	X := make([][]float64, 24)
	y := make([]float64, len(X))
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.Float64()
		}
		y[i] = X[i][0] + X[i][1]*X[i][2] - X[i][5]
	}
	g, err := gp.Fit(X, y, gp.Config{MLEIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	fn := model.Func{D: d, F: func(x []float64) float64 { return 1 + 3*x[0]*x[4] }}
	net := dnn.New(d, dnn.Config{Hidden: []int{8, 8}, Seed: 3})
	stage := dnn.New(3, dnn.Config{Hidden: []int{8}, Seed: 4})
	routed, err := model.NewRouted(d, []model.Model{stage, fn}, [][]int{{0, 2, 4}, {0, 1, 2, 3, 4, 5}}, []float64{1.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return []model.Model{net, g, fn, model.Exp{M: net}, model.Negated{M: g}, routed}
}

// TestEvalRowsMatchesEvalInto: the memoized batch routine writes, for every
// row, exactly what EvalInto returns, and leaves the evaluation and memo
// counters where a row-by-row EvalInto loop leaves them — through memo hits,
// in-batch duplicates and, with the memo disabled, plain re-evaluation.
func TestEvalRowsMatchesEvalInto(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"models", Options{}},
		{"conservative", Options{Alpha: 1.5}},
		{"no-memo", Options{MemoCap: -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			objs := evalRowsObjectives(t)
			batch := NewEvaluator(MustNew(objs, nil), tc.opts)
			rows := NewEvaluator(MustNew(objs, nil), tc.opts)
			k := len(objs)

			rng := rand.New(rand.NewSource(5))
			X := linalg.NewMatrix(9, batch.Dim())
			for i := range X.Data {
				X.Data[i] = rng.Float64()
			}
			copy(X.Row(7), X.Row(2)) // repeats inside the batch
			copy(X.Row(8), X.Row(2))
			for _, e := range []*Evaluator{batch, rows} {
				e.EvalInto(X.Row(0), make(objective.Point, k)) // memo hits
				e.EvalInto(X.Row(3), make(objective.Point, k))
			}

			want := linalg.NewMatrix(X.Rows, k)
			for r := 0; r < X.Rows; r++ {
				rows.EvalInto(X.Row(r), want.Row(r))
			}
			F := linalg.NewMatrix(X.Rows, k)
			for i := range F.Data {
				F.Data[i] = math.NaN() // every cell must be written
			}
			var sc BatchScratch
			for pass := 0; pass < 2; pass++ {
				batch.EvalRows(X, F, &sc)
				for i := range F.Data {
					if F.Data[i] != want.Data[i] {
						t.Fatalf("pass %d row %d obj %d: EvalRows %v, EvalInto %v", pass, i/k, i%k, F.Data[i], want.Data[i])
					}
				}
				if pass == 0 {
					hb, mb := batch.MemoStats()
					hr, mr := rows.MemoStats()
					if batch.Evals() != rows.Evals() || hb != hr || mb != mr {
						t.Fatalf("counters: EvalRows evals %d hits %d misses %d, EvalInto evals %d hits %d misses %d",
							batch.Evals(), hb, mb, rows.Evals(), hr, mr)
					}
				}
			}
			if tc.opts.MemoCap >= 0 {
				// The second pass was all memo hits.
				if hits, _ := batch.MemoStats(); batch.Evals() != rows.Evals() || hits != 4+uint64(X.Rows) {
					t.Fatalf("repeat batch: evals %d (want %d), hits %d", batch.Evals(), rows.Evals(), hits)
				}
			}
		})
	}
}

// TestEvalRowsAllocations: with a reused scratch, an all-hit batch allocates
// nothing, so steady-state MOGD iterations pay only for new memo entries.
func TestEvalRowsAllocations(t *testing.T) {
	e := batchTestEvaluator(t, Options{})
	X := linalg.NewMatrix(8, e.Dim())
	for i := range X.Data {
		X.Data[i] = float64(i%7) / 7
	}
	F := linalg.NewMatrix(8, e.NumObjectives())
	var sc BatchScratch
	e.EvalRows(X, F, &sc)
	if a := testing.AllocsPerRun(50, func() { e.EvalRows(X, F, &sc) }); a != 0 {
		t.Fatalf("all-hit EvalRows allocates %.1f/op, want 0", a)
	}
}

// TestEvalRowsConcurrent: goroutines with their own scratch share one
// evaluator's memo (concurrent MOGD solves do) and every row still gets the
// row-wise value. Run under -race.
func TestEvalRowsConcurrent(t *testing.T) {
	e := batchTestEvaluator(t, Options{MemoCap: 16}) // small cap: flushes race lookups
	ref := batchTestEvaluator(t, Options{})
	k := e.NumObjectives()
	rng := rand.New(rand.NewSource(6))
	pool := make([][]float64, 24)
	for i := range pool {
		pool[i] = make([]float64, e.Dim())
		for d := range pool[i] {
			pool[i][d] = rng.Float64()
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc BatchScratch
			X := linalg.NewMatrix(8, e.Dim())
			F := linalg.NewMatrix(8, k)
			want := make(objective.Point, k)
			for it := 0; it < 20; it++ {
				for r := 0; r < X.Rows; r++ {
					copy(X.Row(r), pool[(g*5+it*3+r*7)%len(pool)])
				}
				e.EvalRows(X, F, &sc)
				for r := 0; r < X.Rows; r++ {
					ref.EvalInto(X.Row(r), want)
					for j := range want {
						if F.Row(r)[j] != want[j] {
							t.Errorf("goroutine %d iter %d row %d obj %d: %v, want %v", g, it, r, j, F.Row(r)[j], want[j])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
