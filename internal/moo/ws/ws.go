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
	// Evaluator is the problem the method optimizes; its memo cache and
	// evaluation counter are shared with the caller.
	Evaluator *problem.Evaluator
	// Starts and Iters control the inner gradient-descent solver per weight
	// vector (defaults 8 and 150; WS needs generous effort per scalarized
	// problem, which is what makes it slow end-to-end).
	Starts, Iters int
}

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

// Run implements moo.Method: one scalarized solve per weight vector, with
// objectives normalized by the anchor-point box so weights are comparable.
func (m *Method) Run(opt moo.Options) ([]objective.Solution, error) {
	m.defaults()
	tr := opt.Track()
	ev := m.Evaluator
	rng := rand.New(rand.NewSource(opt.Seed))
	k := ev.NumObjectives()
	anchorSols, utopia, nadir := moo.Anchors(ev, m.Starts, m.Iters, rng)

	var found []objective.Solution
	found = append(found, anchorSols...)
	tr.Report(objective.Filter(found))

	scalar := &weighted{ev: ev, utopia: utopia, nadir: nadir, gbuf: make([]float64, ev.Dim())}
	for _, w := range moo.SimplexWeights(opt.Points, k) {
		if tr.Expired() {
			break
		}
		scalar.w = w
		x, _ := moo.MinimizeSingle(scalar, m.Starts, m.Iters, rng)
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
