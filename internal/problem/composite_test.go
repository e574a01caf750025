package problem

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/space"
)

// pipelineFixture is a two-stage composite: shared cluster knobs (instances,
// cores) tied across an "etl" and an "ml" stage with disjoint stage knobs.
func pipelineFixture(t testing.TB) (*space.Composite, []StageObjective) {
	t.Helper()
	c, err := space.NewComposite(
		[]space.Var{
			{Name: "instances", Kind: space.Integer, Min: 2, Max: 14},
			{Name: "cores", Kind: space.Integer, Min: 1, Max: 4},
		},
		[]space.Stage{
			{Name: "etl", Vars: []space.Var{
				{Name: "instances", Kind: space.Integer, Min: 2, Max: 14},
				{Name: "cores", Kind: space.Integer, Min: 1, Max: 4},
				{Name: "partitions", Kind: space.Integer, Min: 8, Max: 1000, Log: true},
			}},
			{Name: "ml", Vars: []space.Var{
				{Name: "instances", Kind: space.Integer, Min: 2, Max: 14},
				{Name: "cores", Kind: space.Integer, Min: 1, Max: 4},
				{Name: "batch", Kind: space.Integer, Min: 2500, Max: 40000, Log: true},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	// Per-stage latency models over the stage sub-spaces (dim 3 each), plus a
	// shared-knob cost objective contributed by the etl stage only.
	stageLat := func(bias float64) model.Model {
		return model.Func{D: 3, F: func(x []float64) float64 {
			return bias + (1-x[0])*(1-x[1]) + 0.3*x[2]*x[2]
		}}
	}
	cost := model.Func{D: 3, F: func(x []float64) float64 { return x[0] * x[1] }}
	objs := []StageObjective{
		{Models: []model.Model{stageLat(0.2), stageLat(0.5)}},
		{Models: []model.Model{cost, nil}},
	}
	return c, objs
}

func TestNewCompositeProblem(t *testing.T) {
	c, objs := pipelineFixture(t)
	p, err := NewComposite(c, objs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Dim() != c.Dim() {
		t.Fatalf("problem dim %d != composite dim %d", p.Dim(), c.Dim())
	}
	if len(p.Objectives) != 2 {
		t.Fatalf("%d objectives, want 2", len(p.Objectives))
	}
	if p.Space != c.Space {
		t.Fatal("problem space is not the composite's flat space")
	}
	// The assembled objective equals the manual stage-by-stage sum.
	x := make([]float64, c.Dim())
	for d := range x {
		x[d] = float64(d+1) / float64(c.Dim()+1)
	}
	want := 0.0
	for si := 0; si < c.NumStages(); si++ {
		want += objs[0].Models[si].Predict(c.Gather(si, x, nil))
	}
	if got := p.Objectives[0].Predict(x); got != want {
		t.Fatalf("objective 0 = %v, manual stage sum %v", got, want)
	}
	// The nil-stage objective reads only the etl sub-vector.
	if got, want := p.Objectives[1].Predict(x), objs[1].Models[0].Predict(c.Gather(0, x, nil)); got != want {
		t.Fatalf("objective 1 = %v, etl-only %v", got, want)
	}
}

// TestCompositeEvaluatorSeam proves the whole evaluation seam operates on the
// concatenated vector: memoization, batch eval and the eval counters behave
// exactly as they do for flat problems.
func TestCompositeEvaluatorSeam(t *testing.T) {
	c, objs := pipelineFixture(t)
	p, err := NewComposite(c, objs)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEvaluator(p, Options{})
	x := make([]float64, c.Dim())
	for d := range x {
		x[d] = 0.25 + 0.1*float64(d)
	}
	f1 := e.Eval(x)
	if got := e.Evals(); got != 2 {
		t.Fatalf("Evals after first point = %d, want 2 (one per objective)", got)
	}
	f2 := e.Eval(x)
	if !reflect.DeepEqual(f1, f2) {
		t.Fatalf("memoized re-eval differs: %v vs %v", f1, f2)
	}
	if got := e.Evals(); got != 2 {
		t.Fatalf("Evals after memo hit = %d, want 2", got)
	}
	hits, misses := e.MemoStats()
	if hits != 1 || misses != 1 {
		t.Fatalf("memo stats = %d hits / %d misses", hits, misses)
	}
	// Batch evaluation over concatenated points matches per-point eval.
	xs := make([][]float64, 5)
	for i := range xs {
		xi := append([]float64(nil), x...)
		xi[0] = float64(i) / 5
		xs[i] = xi
	}
	batch := e.EvalBatch(xs)
	for i := range xs {
		if want := e.Eval(xs[i]); !reflect.DeepEqual(batch[i], want) {
			t.Fatalf("EvalBatch[%d] = %v, Eval = %v", i, batch[i], want)
		}
	}
	// The fused path assembles the composite gradient block-wise; untouched
	// dimensions (none here) and shared dims accumulate; cross-check value.
	grad := make([]float64, c.Dim())
	v, g := e.ObjValueGrad(0, x, grad)
	if v != f1[0] {
		t.Fatalf("fused value %v != Eval value %v", v, f1[0])
	}
	if &g[0] != &grad[0] {
		t.Fatal("fused path ignored the caller's buffer")
	}
}

func TestNewCompositeValidation(t *testing.T) {
	c, objs := pipelineFixture(t)
	if _, err := NewComposite(nil, objs); err == nil {
		t.Error("nil composite accepted")
	}
	if _, err := NewComposite(c, nil); err == nil {
		t.Error("no objectives accepted")
	}
	if _, err := NewComposite(c, []StageObjective{{Models: []model.Model{nil, nil}}}); err == nil {
		t.Error("all-nil stage models accepted")
	}
	if _, err := NewComposite(c, []StageObjective{{Models: objs[0].Models[:1]}}); err == nil {
		t.Error("stage-count mismatch accepted")
	}
	bad := model.Func{D: 7, F: func(x []float64) float64 { return 0 }}
	if _, err := NewComposite(c, []StageObjective{{Models: []model.Model{bad, nil}}}); err == nil {
		t.Error("stage-dim mismatch accepted")
	}
	if _, err := NewComposite(c, []StageObjective{{Models: objs[0].Models, Weights: []float64{1}}}); err == nil {
		t.Error("weight-count mismatch accepted")
	}
}
