// Package nc implements the Normalized Normal Constraint baseline [21]
// (Messac et al.): anchor points define the utopia hyperplane in the
// normalized objective space; evenly distributed points on that plane each
// spawn a constrained problem — minimize the last objective subject to
// normal-hyperplane inequality constraints — solved here by penalty-method
// gradient descent.
//
// As the paper notes (§III), NC uses a preset point count but often returns
// fewer Pareto points than requested (some sub-problems fail or produce
// dominated points that the final filter removes), and obtaining more points
// requires restarting the whole computation — both behaviours are preserved.
package nc

import (
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/moo"
	"repro/internal/objective"
	"repro/internal/problem"
)

// Method is the Normalized Normal Constraint baseline.
type Method struct {
	// Evaluator is the problem the method optimizes; its memo cache and
	// evaluation counter are shared with the caller.
	Evaluator     *problem.Evaluator
	Starts, Iters int
}

// Penalty solver constants: the Adam learning rate and the weight of a
// constraint violation.
const (
	lr      = 0.05
	penalty = 50
)

// Name implements moo.Method.
func (m *Method) Name() string { return "NC" }

func (m *Method) defaults() {
	if m.Starts == 0 {
		m.Starts = 8
	}
	if m.Iters == 0 {
		m.Iters = 150
	}
}

// Run implements moo.Method.
func (m *Method) Run(opt moo.Options) ([]objective.Solution, error) {
	m.defaults()
	tr := opt.Track()
	ev := m.Evaluator
	rng := rand.New(rand.NewSource(opt.Seed))
	k := ev.NumObjectives()
	anchorSols, utopia, nadir := moo.Anchors(ev, m.Starts, m.Iters, rng)

	// Normalized anchor points.
	anchors := make([]objective.Point, k)
	for i, s := range anchorSols {
		anchors[i] = objective.Normalize(s.F, utopia, nadir)
	}
	// Normal directions N_j = anchor_k − anchor_j, j = 1..k−1.
	normals := make([][]float64, 0, k-1)
	for j := 0; j < k-1; j++ {
		n := make([]float64, k)
		for d := 0; d < k; d++ {
			n[d] = anchors[k-1][d] - anchors[j][d]
		}
		normals = append(normals, n)
	}

	found := append([]objective.Solution(nil), anchorSols...)
	tr.Report(objective.Filter(found))

	sub := m.newSubSolver(ev, normals, utopia, nadir)
	for _, lambda := range moo.SimplexWeights(opt.Points, k) {
		if tr.Expired() {
			break
		}
		// Point on the utopia hyperplane: Xp = Σ λ_i · anchor_i.
		xp := make(objective.Point, k)
		for i := 0; i < k; i++ {
			for d := 0; d < k; d++ {
				xp[d] += lambda[i] * anchors[i][d]
			}
		}
		if x, ok := sub.solve(xp, rng); ok {
			found = append(found, objective.Solution{F: ev.Eval(x), X: x})
		}
		tr.Report(objective.Filter(found))
	}
	return tr.Finish(objective.Filter(found)), nil
}

// subSolver holds the shared geometry and reusable buffers for the
// penalty-method sub-problems. Each solve iteration costs one fused
// ValueGrad pass per objective — value and gradient together — and all
// per-iteration state lives in hoisted buffers, so the inner loop does not
// allocate.
type subSolver struct {
	m             *Method
	ev            *problem.Evaluator
	normals       [][]float64
	utopia, nadir objective.Point
	// Hoisted scratch, reused across iterations and starts.
	x, mA, vA  []float64
	grad, gbuf []float64
	f, fb      objective.Point
	fgrads     [][]float64 // per-objective input gradients at the iterate
	coeff      []float64
}

func (m *Method) newSubSolver(ev *problem.Evaluator, normals [][]float64, utopia, nadir objective.Point) *subSolver {
	k := ev.NumObjectives()
	dim := ev.Dim()
	s := &subSolver{
		m: m, ev: ev, normals: normals, utopia: utopia, nadir: nadir,
		x: make([]float64, dim), mA: make([]float64, dim), vA: make([]float64, dim),
		grad: make([]float64, dim), gbuf: make([]float64, dim),
		f: make(objective.Point, k), fb: make(objective.Point, k),
		coeff: make([]float64, k),
	}
	s.fgrads = make([][]float64, k)
	for j := range s.fgrads {
		s.fgrads[j] = make([]float64, dim)
	}
	return s
}

func (s *subSolver) span(j int) float64 {
	sp := s.nadir[j] - s.utopia[j]
	if sp <= 0 {
		return 1
	}
	return sp
}

// normalize writes the [utopia, nadir]-normalized form of s.f into s.fb.
func (s *subSolver) normalize() {
	for j := range s.f {
		s.fb[j] = (s.f[j] - s.utopia[j]) / s.span(j)
	}
}

// solve minimizes F̄_k subject to N_j·(F̄ − Xp) ≤ 0 via Adam on a penalty
// loss. ok is false when the constraints remain violated at every start.
func (s *subSolver) solve(xp objective.Point, rng *rand.Rand) ([]float64, bool) {
	k := s.ev.NumObjectives()
	dim := s.ev.Dim()
	var bestX []float64
	bestVal := math.Inf(1)
	for st := 0; st < s.m.Starts; st++ {
		if st == 0 {
			for d := range s.x {
				s.x[d] = 0.5
			}
		} else {
			for d := range s.x {
				s.x[d] = rng.Float64()
			}
		}
		for d := 0; d < dim; d++ {
			s.mA[d] = 0
			s.vA[d] = 0
		}
		const b1, b2, eps = 0.9, 0.999, 1e-8
		for it := 1; it <= s.m.Iters; it++ {
			// One fused pass per objective: values for the constraint terms,
			// gradients for the descent direction.
			for j := 0; j < k; j++ {
				s.f[j], _ = s.ev.ObjValueGrad(j, s.x, s.fgrads[j])
			}
			s.normalize()
			// dL/dF̄_j coefficients.
			for j := range s.coeff {
				s.coeff[j] = 0
			}
			s.coeff[k-1] = 1 // target: minimize normalized last objective
			for _, n := range s.normals {
				viol := 0.0
				for d := 0; d < k; d++ {
					viol += n[d] * (s.fb[d] - xp[d])
				}
				if viol > 0 {
					for d := 0; d < k; d++ {
						s.coeff[d] += 2 * penalty * viol * n[d]
					}
				}
			}
			for d := range s.grad {
				s.grad[d] = 0
			}
			for j := 0; j < k; j++ {
				if s.coeff[j] == 0 {
					continue
				}
				c := s.coeff[j] / s.span(j)
				g := s.fgrads[j]
				for d := range s.grad {
					s.grad[d] += c * g[d]
				}
			}
			t := float64(it)
			c1 := 1 - math.Pow(b1, t)
			c2 := 1 - math.Pow(b2, t)
			for d := range s.x {
				gv := s.grad[d]
				s.mA[d] = b1*s.mA[d] + (1-b1)*gv
				s.vA[d] = b2*s.vA[d] + (1-b2)*gv*gv
				step := lr * (s.mA[d] / c1) / (math.Sqrt(s.vA[d]/c2) + eps)
				s.x[d] = linalg.Clamp(s.x[d]-step, 0, 1)
			}
		}
		// Accept only constraint-satisfying finishes.
		s.ev.EvalInto(s.x, s.f)
		s.normalize()
		feasible := true
		for _, n := range s.normals {
			viol := 0.0
			for d := 0; d < k; d++ {
				viol += n[d] * (s.fb[d] - xp[d])
			}
			if viol > 1e-3 {
				feasible = false
				break
			}
		}
		if feasible && s.fb[k-1] < bestVal {
			bestVal = s.fb[k-1]
			bestX = append(bestX[:0], s.x...)
		}
	}
	if bestX == nil {
		return nil, false
	}
	return append([]float64(nil), bestX...), true
}
