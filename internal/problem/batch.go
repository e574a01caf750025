package problem

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/objective"
)

// Batched evaluation seam: the matrix counterparts of ObjValueGrad and
// EvalInto. Values stay bit-identical to the scalar paths —
// the dnn batch kernels guarantee per-row equality, and models without a
// native batch pass fall back to the exact scalar calls — so memo entries
// written by either path are interchangeable.

// ObjForwardBatch evaluates objective j's effective value at every row of X
// into y and returns the deferred gradient continuation: calling Grad(G)
// backprops the whole batch through one GEMM per layer; skipping it (Done
// only) skips the backward pass entirely. This is the MOGD batched hot path —
// the loss needs every objective's value each iteration but an objective's
// gradient only while its constraint term is active.
//
// For conservative objectives (Alpha > 0 on an Uncertain model) the values
// include the α·std uplift via the scalar effective path while gradients stay
// the mean gradients, exactly like ObjValueGrad.
func (e *Evaluator) ObjForwardBatch(j int, X *linalg.Matrix, y []float64) model.BatchGrad {
	h := model.ForwardBatch(e.vgs[j], X, y)
	rows := uint64(X.Rows)
	e.evals.Add(rows)
	e.telEvals.Add(rows)
	if !e.fused[j] {
		for r := 0; r < X.Rows; r++ {
			y[r] = e.eff[j].Predict(X.Row(r))
		}
		e.evals.Add(rows)
		e.telEvals.Add(rows)
	}
	return h
}

// BatchScratch holds EvalRows' reusable buffers: the memo key, the miss
// bookkeeping, the packed miss matrix and one objective's value column. The
// zero value is ready to use. Buffers grow to the largest batch seen and are
// then reused, so a caller that keeps one scratch per goroutine (MOGD keeps
// one per pooled solve scratch) allocates only the memo entries it inserts.
// A scratch must not be shared between concurrent EvalRows calls.
type BatchScratch struct {
	key    []byte
	miss   []int          // rows evaluated by the models, in row order
	keys   []string       // memo key of each miss
	first  map[string]int // memo key → first row carrying it in this batch
	dups   []int          // (row, first row) pairs of in-batch repeats
	packed []float64      // misses × Dim, row-major
	col    []float64      // one objective's values at the misses
}

// EvalRows writes the effective objective vector at every row of X into the
// same row of F (X.Rows×k). It is the memoized batch routine: memo hits are
// copied out; a row repeated within the batch is evaluated once and counted
// as a hit, exactly as a row-by-row EvalInto loop would count it; the
// remaining misses are packed into one matrix and evaluated with one
// model.PredictBatch per objective (one GEMM per layer for DNN objectives),
// then memoized. Each objective's model sees the misses in row order, and
// values are bit-identical to EvalInto on each row. It returns the number of
// rows the models evaluated.
func (e *Evaluator) EvalRows(X, F *linalg.Matrix, sc *BatchScratch) int {
	n, k := X.Rows, len(e.eff)
	if X.Cols != e.Dim() || F.Rows != n || F.Cols != k {
		panic(fmt.Sprintf("problem: EvalRows got %dx%d points and %dx%d values, want %d columns and %d objectives",
			X.Rows, X.Cols, F.Rows, F.Cols, e.Dim(), k))
	}
	sc.miss, sc.keys, sc.dups = sc.miss[:0], sc.keys[:0], sc.dups[:0]
	if !e.memoized() {
		for r := 0; r < n; r++ {
			sc.miss = append(sc.miss, r)
		}
	} else {
		if sc.first == nil {
			sc.first = make(map[string]int)
		}
		clear(sc.first)
		e.memoMu.RLock()
		for r := 0; r < n; r++ {
			sc.key = appendMemoKey(sc.key[:0], X.Row(r))
			if cached, ok := e.memo[string(sc.key)]; ok {
				copy(F.Row(r), cached)
				continue
			}
			if src, ok := sc.first[string(sc.key)]; ok {
				sc.dups = append(sc.dups, r, src)
				continue
			}
			key := string(sc.key)
			sc.first[key] = r
			sc.keys = append(sc.keys, key)
			sc.miss = append(sc.miss, r)
		}
		e.memoMu.RUnlock()
		hits := uint64(n - len(sc.miss))
		e.memoHits.Add(hits)
		e.telHits.Add(hits)
		e.memoMiss.Add(uint64(len(sc.miss)))
		e.telMiss.Add(uint64(len(sc.miss)))
	}
	m := len(sc.miss)
	if m == 0 {
		return 0
	}

	sc.packed = grow(sc.packed, m*X.Cols)
	P := linalg.NewMatrixFrom(m, X.Cols, sc.packed)
	for i, r := range sc.miss {
		copy(P.Row(i), X.Row(r))
	}
	sc.col = grow(sc.col, m)
	for j, mod := range e.eff {
		model.PredictBatch(mod, P, sc.col)
		for i, r := range sc.miss {
			F.Row(r)[j] = sc.col[i]
		}
	}
	e.evals.Add(uint64(k * m))
	e.telEvals.Add(uint64(k * m))
	for i := 0; i < len(sc.dups); i += 2 {
		copy(F.Row(sc.dups[i]), F.Row(sc.dups[i+1]))
	}

	if e.memoized() {
		e.memoMu.Lock()
		for i, r := range sc.miss {
			if len(e.memo) >= e.opts.MemoCap {
				e.memo = make(map[string]objective.Point)
			}
			e.memo[sc.keys[i]] = objective.Point(F.Row(r)).Clone()
		}
		e.memoMu.Unlock()
	}
	return m
}

// grow returns buf resliced to length n, reallocating only when its capacity
// is too small.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// evalBatchMatrix is EvalBatch's matrix path, taken when every effective
// objective has a native batched pass: the points are stacked into one matrix
// and evaluated through EvalRows.
func (e *Evaluator) evalBatchMatrix(xs [][]float64) []objective.Point {
	k := len(e.eff)
	X := linalg.NewMatrix(len(xs), e.Dim())
	for i, x := range xs {
		copy(X.Row(i), x)
	}
	F := linalg.NewMatrix(len(xs), k)
	var sc BatchScratch
	e.telBatchPts.Add(uint64(e.EvalRows(X, F, &sc)))
	out := make([]objective.Point, len(xs))
	for i := range out {
		out[i] = objective.Point(F.Data[i*k : (i+1)*k : (i+1)*k])
	}
	return out
}
