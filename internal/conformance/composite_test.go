package conformance

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/moo"
	"repro/internal/objective"
	"repro/internal/problem"
	"repro/internal/solver"
	"repro/internal/solver/exact"
	"repro/internal/solver/mogd"
	"repro/internal/space"
)

// compositeProblem builds the shared stage-wise test problem: two stages with
// tied cluster knobs and one private knob each, k objectives assembled from
// per-stage models. k=2 uses a latency-sum + shared-cost pair; k=3 adds a
// per-stage memory-pressure objective, giving a genuine 3D frontier.
func compositeProblem(t testing.TB, k int) (*space.Composite, []problem.StageObjective) {
	t.Helper()
	shared := []space.Var{
		{Name: "instances", Kind: space.Integer, Min: 2, Max: 14},
		{Name: "cores", Kind: space.Integer, Min: 1, Max: 4},
	}
	c, err := space.NewComposite(shared, []space.Stage{
		{Name: "etl", Vars: append(append([]space.Var(nil), shared...),
			space.Var{Name: "partitions", Kind: space.Integer, Min: 8, Max: 512, Log: true})},
		{Name: "ml", Vars: append(append([]space.Var(nil), shared...),
			space.Var{Name: "batch", Kind: space.Integer, Min: 1000, Max: 32000, Log: true})},
	})
	if err != nil {
		t.Fatal(err)
	}
	stageLat := func(base float64) model.Model {
		return model.Func{D: 3, F: func(x []float64) float64 {
			par := 1 + 7*x[0]*x[1]
			return base/par + 15*(x[2]-0.5)*(x[2]-0.5)
		}}
	}
	cost := model.Func{D: 3, F: func(x []float64) float64 { return 1 + 10*x[0]*x[1] }}
	objs := []problem.StageObjective{
		{Models: []model.Model{stageLat(500), stageLat(800)}},
		{Models: []model.Model{cost, nil}},
	}
	if k == 3 {
		mem := func(w float64) model.Model {
			return model.Func{D: 3, F: func(x []float64) float64 {
				return w * (1 - x[2]) * (1 + x[0])
			}}
		}
		objs = append(objs, problem.StageObjective{Models: []model.Model{mem(3), mem(5)}})
	}
	return c, objs
}

func newCompositeEvaluator(t testing.TB, k int) *problem.Evaluator {
	t.Helper()
	c, objs := compositeProblem(t, k)
	p, err := problem.NewComposite(c, objs)
	if err != nil {
		t.Fatal(err)
	}
	return problem.NewEvaluator(p, problem.Options{})
}

// TestCompositeMethodConformance runs every moo baseline over the composite
// problem and asserts the shared frontier contract (in-box configurations,
// evaluator-exact objective vectors, mutual non-domination). Under -race this
// also drives the concurrent batch path over the concatenated encoding.
func TestCompositeMethodConformance(t *testing.T) {
	for _, m := range methodsFor(newCompositeEvaluator(t, 2)) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			ev := newCompositeEvaluator(t, 2)
			front, err := m.Run(moo.Options{Points: 4, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			checkFrontier(t, ev, front)
		})
	}
}

// TestCompositeMethodSeedDeterminism: equal seeds give bit-identical
// frontiers on composite problems, for every baseline.
func TestCompositeMethodSeedDeterminism(t *testing.T) {
	for i, m := range methodsFor(newCompositeEvaluator(t, 2)) {
		m2 := methodsFor(newCompositeEvaluator(t, 2))[i]
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			t.Parallel()
			a, err := m.Run(moo.Options{Points: 4, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			b, err := m2.Run(moo.Options{Points: 4, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different frontiers:\n%v\nvs\n%v", a, b)
			}
		})
	}
}

// pfFront runs one Progressive Frontier computation over the composite
// evaluator: PF-AP (parallel, mogd) or PF-S (sequential, near-exact).
func pfFront(t *testing.T, ev *problem.Evaluator, parallel bool, probes int, seed int64) []objective.Solution {
	t.Helper()
	var s solver.Solver
	if parallel {
		mg, err := mogd.New(ev, mogd.Config{Starts: 4, Iters: 40, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		s = mg
	} else {
		s = exact.New(ev, exact.Config{Samples: 256, Refine: 1, Steps: 8})
	}
	run := core.NewRun(s, parallel, core.Options{Seed: seed})
	front, err := run.Expand(probes)
	if err != nil {
		t.Fatal(err)
	}
	return front
}

// TestCompositePFDeterminismAndDominance is the PF acceptance suite on
// composite spaces: PF-S and PF-AP both return evaluator-exact, mutually
// non-dominated frontiers, bit-identically across equal-seed reruns.
func TestCompositePFDeterminismAndDominance(t *testing.T) {
	for _, tc := range []struct {
		name     string
		parallel bool
	}{{"pf-s", false}, {"pf-ap", true}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			front := pfFront(t, newCompositeEvaluator(t, 2), tc.parallel, 12, 19)
			checkFrontier(t, newCompositeEvaluator(t, 2), front)
			again := pfFront(t, newCompositeEvaluator(t, 2), tc.parallel, 12, 19)
			if !reflect.DeepEqual(front, again) {
				t.Fatalf("%s not bit-deterministic on a composite space", tc.name)
			}
		})
	}
}

// TestCompositePFAP3D runs PF-AP on the 3-objective composite problem
// (exercising the l^k grid with k=3) and checks the frontier against the
// dominance contract and internal/metrics hypervolume in the union box of
// everything PF saw.
func TestCompositePFAP3D(t *testing.T) {
	front := pfFront(t, newCompositeEvaluator(t, 3), true, 16, 29)
	checkFrontier(t, newCompositeEvaluator(t, 3), front)
	if k := len(front[0].F); k != 3 {
		t.Fatalf("frontier dimensionality %d, want 3", k)
	}
	pts := make([]objective.Point, len(front))
	for i, s := range front {
		pts[i] = s.F
	}
	utopia, nadir := objective.Bounds(pts)
	for j := range nadir {
		if nadir[j] <= utopia[j] {
			nadir[j] = utopia[j] + 1
		}
	}
	if !metrics.BoxValid(utopia, nadir) {
		t.Fatalf("degenerate union box [%v, %v]", utopia, nadir)
	}
	hv := metrics.Hypervolume(pts, utopia, nadir)
	if math.IsNaN(hv) || hv <= 0 || hv > 1 {
		t.Fatalf("hypervolume %v outside (0, 1]", hv)
	}
	// Hypervolume in the union box is monotone: dropping a frontier point
	// can only keep or shrink the dominated volume.
	if len(pts) > 1 {
		sub := metrics.Hypervolume(pts[:len(pts)-1], utopia, nadir)
		if sub > hv+1e-12 {
			t.Fatalf("subset hypervolume %v exceeds full frontier %v", sub, hv)
		}
	}
}

// TestCompositeValueGradBitIdentity is the acceptance bit-identity check: the
// composite evaluator's fused batch-1 value+gradient equals the scalar
// stage-by-stage sum exactly — same float64 bits, value and every gradient
// coordinate.
func TestCompositeValueGradBitIdentity(t *testing.T) {
	c, objs := compositeProblem(t, 3)
	p, err := problem.NewComposite(c, objs)
	if err != nil {
		t.Fatal(err)
	}
	ev := problem.NewEvaluator(p, problem.Options{})
	x := make([]float64, c.Dim())
	for d := range x {
		x[d] = 0.15 + 0.07*float64(d)
	}
	for oi, obj := range objs {
		v, g := ev.ObjValueGrad(oi, x, nil)
		// Scalar reference: gather each stage sub-vector, evaluate the stage
		// model and its gradient alone, and accumulate in ascending stage
		// order — the documented equivalence class of model.Routed.
		wantV := 0.0
		wantG := make([]float64, c.Dim())
		for si, m := range obj.Models {
			if m == nil {
				continue
			}
			sub := c.Gather(si, x, nil)
			vi, gi := model.EnsureValueGrad(m).ValueGrad(sub, nil)
			wantV += vi
			for j, d := range c.StageDims(si) {
				wantG[d] += gi[j]
			}
		}
		if v != wantV {
			t.Fatalf("objective %d: fused value %x != scalar sum %x", oi, math.Float64bits(v), math.Float64bits(wantV))
		}
		for d := range wantG {
			if g[d] != wantG[d] {
				t.Fatalf("objective %d: grad[%d] = %x != scalar %x", oi, d, math.Float64bits(g[d]), math.Float64bits(wantG[d]))
			}
		}
	}
}
