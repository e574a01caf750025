// Package ws implements the Weighted Sum baseline [19]: the MOO problem is
// scalarized into min Σ w_i·F̂_i for a sweep of weight vectors, each solved
// by multi-start gradient descent. As the paper observes (§III, Fig. 4(b)),
// WS is known to have poor coverage of the Pareto frontier — many weight
// vectors collapse onto the same solution, and points in non-convex regions
// of the frontier are unreachable — which this implementation reproduces.
package ws

import (
	"math/rand"

	"repro/internal/model"
	"repro/internal/moo"
	"repro/internal/objective"
	"repro/internal/problem"
)

// Method is the Weighted Sum baseline.
type Method struct {
	Objectives []model.Model
	// Evaluator, when non-nil, is used instead of building one over
	// Objectives — injected by callers that share a memo cache and
	// evaluation counter across methods.
	Evaluator *problem.Evaluator
	// Starts and Iters control the inner gradient-descent solver per weight
	// vector (defaults 8 and 150; WS needs generous effort per scalarized
	// problem, which is what makes it slow end-to-end).
	Starts, Iters int
}

// lr is the inner solver's Adam learning rate.
const lr = 0.05

// Name implements moo.Method.
func (m *Method) Name() string { return "WS" }

func (m *Method) defaults() {
	if m.Starts == 0 {
		m.Starts = 8
	}
	if m.Iters == 0 {
		m.Iters = 150
	}
}

// weightVectors enumerates `n` weight vectors on the unit simplex: a uniform
// sweep in 2D and a triangular lattice in higher dimensions.
func weightVectors(n, k int) [][]float64 {
	var out [][]float64
	if k == 2 {
		for i := 0; i < n; i++ {
			w := float64(i) / float64(max(n-1, 1))
			out = append(out, []float64{w, 1 - w})
		}
		return out
	}
	// Simplex lattice: choose the smallest lattice degree h with
	// C(h+k-1, k-1) >= n, then emit the first n lattice points.
	h := 1
	for count(h, k) < n {
		h++
	}
	var rec func(prefix []int, left, dims int)
	rec = func(prefix []int, left, dims int) {
		if len(out) >= n {
			return
		}
		if dims == 1 {
			w := make([]float64, 0, k)
			for _, p := range prefix {
				w = append(w, float64(p)/float64(h))
			}
			w = append(w, float64(left)/float64(h))
			out = append(out, w)
			return
		}
		for v := 0; v <= left; v++ {
			rec(append(prefix, v), left-v, dims-1)
		}
	}
	rec(nil, h, k)
	return out
}

func count(h, k int) int {
	// C(h+k-1, k-1)
	n := 1
	for i := 1; i <= k-1; i++ {
		n = n * (h + i) / i
	}
	return n
}

// Run implements moo.Method: one scalarized solve per weight vector, with
// objectives normalized by the anchor-point box so weights are comparable.
func (m *Method) Run(opt moo.Options) ([]objective.Solution, error) {
	m.defaults()
	tr := opt.Track()
	ev, err := moo.Evaluator(m.Evaluator, m.Objectives)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	k := ev.NumObjectives()
	anchorSols, utopia, nadir := moo.Anchors(ev, m.Starts, m.Iters, lr, rng)

	var found []objective.Solution
	found = append(found, anchorSols...)
	tr.Report(objective.Filter(found))

	scalar := &weighted{ev: ev, utopia: utopia, nadir: nadir, gbuf: make([]float64, ev.Dim())}
	for _, w := range weightVectors(opt.Points, k) {
		if tr.Expired() {
			break
		}
		scalar.w = w
		x, _ := moo.MinimizeSingle(scalar, m.Starts, m.Iters, lr, rng)
		found = append(found, objective.Solution{F: ev.Eval(x), X: x})
		tr.Report(objective.Filter(found))
	}
	return tr.Finish(objective.Filter(found)), nil
}

// weighted is the scalarized objective Σ w_i·F̂_i over the evaluator's fused
// per-objective path: one ValueGrad pass per objective yields both the
// scalarized value and its gradient. gbuf is the per-objective gradient
// scratch (Run solves weight vectors sequentially, so one buffer suffices).
type weighted struct {
	ev            *problem.Evaluator
	w             []float64
	utopia, nadir objective.Point
	gbuf          []float64
}

func (s *weighted) Dim() int { return s.ev.Dim() }

func (s *weighted) scale(j int) float64 {
	span := s.nadir[j] - s.utopia[j]
	if span <= 0 {
		span = 1
	}
	return span
}

func (s *weighted) Predict(x []float64) float64 {
	v, _ := s.ValueGrad(x, nil)
	return v
}

// ValueGrad implements model.ValueGradienter: the scalarized value and
// gradient from one fused pass per objective.
func (s *weighted) ValueGrad(x, grad []float64) (float64, []float64) {
	out := model.GradBuf(grad, s.Dim())
	for d := range out {
		out[d] = 0
	}
	v := 0.0
	for j := range s.w {
		if s.w[j] == 0 {
			continue
		}
		fj, gj := s.ev.ObjValueGrad(j, x, s.gbuf)
		c := s.w[j] / s.scale(j)
		v += c * (fj - s.utopia[j])
		for d := range out {
			out[d] += c * gj[d]
		}
	}
	return v, out
}
