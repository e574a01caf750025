package model

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/linalg"
)

// routedFixture builds a 6-dim composite routing over three analytic stages:
// stage 0 reads dims {0,1,2}, stage 1 reads {0,3,4} (dim 0 shared), stage 2
// reads {5,1}. Weights are non-uniform to exercise the weighting.
func routedFixture(t *testing.T) Routed {
	t.Helper()
	quad := func(d int, c0 float64) Model {
		return Func{D: d, F: func(x []float64) float64 {
			s := 0.0
			for i, v := range x {
				s += (v - c0) * v * float64(i+1)
			}
			return s
		}}
	}
	r, err := NewRouted(6,
		[]Model{quad(3, 0.2), quad(3, 0.7), quad(2, 0.4)},
		[][]int{{0, 1, 2}, {0, 3, 4}, {5, 1}},
		[]float64{1, 0.5, 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func randPoint(rng *rand.Rand, d int) []float64 {
	x := make([]float64, d)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

// TestRoutedPredictMatchesManualSum pins the definition: the routed value is
// the weighted stage-by-stage sum over gathered sub-vectors.
func TestRoutedPredictMatchesManualSum(t *testing.T) {
	r := routedFixture(t)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		x := randPoint(rng, r.D)
		want := 0.0
		for i, m := range r.Models {
			sub := make([]float64, len(r.Index[i]))
			for j, d := range r.Index[i] {
				sub[j] = x[d]
			}
			want += r.weight(i) * m.Predict(sub)
		}
		if got := r.Predict(x); got != want {
			t.Fatalf("Predict = %v, manual stage sum = %v", got, want)
		}
	}
}

// TestRoutedValueGradBitIdentical asserts the acceptance contract: the fused
// composite ValueGrad is bit-identical to the scalar stage-by-stage sum, with
// shared dimensions accumulating stage contributions in ascending stage
// order.
func TestRoutedValueGradBitIdentical(t *testing.T) {
	r := routedFixture(t)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		x := randPoint(rng, r.D)
		wantV := 0.0
		wantG := make([]float64, r.D)
		for i, m := range r.Models {
			sub := make([]float64, len(r.Index[i]))
			for j, d := range r.Index[i] {
				sub[j] = x[d]
			}
			vi, gi := EnsureValueGrad(m).ValueGrad(sub, nil)
			w := r.weight(i)
			wantV += w * vi
			for j, d := range r.Index[i] {
				wantG[d] += w * gi[j]
			}
		}
		grad := make([]float64, r.D)
		v, g := r.ValueGrad(x, grad)
		if v != wantV {
			t.Fatalf("ValueGrad value %v != scalar stage sum %v", v, wantV)
		}
		if &g[0] != &grad[0] {
			t.Fatal("ValueGrad did not use the caller's buffer")
		}
		if !reflect.DeepEqual(g, wantG) {
			t.Fatalf("ValueGrad gradient %v != scalar stage sum %v", g, wantG)
		}
	}
}

// TestRoutedGradientNumeric cross-checks the scatter-added analytic gradient
// against finite differences of the composite Predict.
func TestRoutedGradientNumeric(t *testing.T) {
	r := routedFixture(t)
	x := []float64{0.3, 0.6, 0.1, 0.8, 0.5, 0.9}
	_, got := r.ValueGrad(x, nil)
	_, num := NumericGradient{M: Func{D: r.D, F: r.Predict}}.ValueGrad(x, nil)
	for d := range got {
		if math.Abs(got[d]-num[d]) > 1e-4 {
			t.Fatalf("gradient[%d] = %v, numeric %v", d, got[d], num[d])
		}
	}
}

// TestRoutedBatchMatchesScalar pins both batch contracts against the scalar
// paths, row by row and bit for bit — including batch size 1, the
// acceptance case. The split pass is checked the way MOGD runs it: values
// from ForwardBatch, then gradients from Grad.
func TestRoutedBatchMatchesScalar(t *testing.T) {
	r := routedFixture(t)
	rng := rand.New(rand.NewSource(3))
	for _, rows := range []int{1, 7} {
		X := linalg.NewMatrix(rows, r.D)
		for i := range X.Data {
			X.Data[i] = rng.Float64()
		}
		y := make([]float64, rows)
		r.PredictBatch(X, y)
		for rr := 0; rr < rows; rr++ {
			if want := r.Predict(X.Row(rr)); y[rr] != want {
				t.Fatalf("rows=%d: PredictBatch[%d] = %v, scalar %v", rows, rr, y[rr], want)
			}
		}

		h := r.ForwardBatch(X, y)
		G := linalg.NewMatrix(rows, r.D)
		h.Grad(G)
		h.Done()
		for rr := 0; rr < rows; rr++ {
			v, g := r.ValueGrad(X.Row(rr), nil)
			if y[rr] != v || !reflect.DeepEqual(G.Row(rr), g) {
				t.Fatalf("rows=%d: split pass row %d differs from scalar ValueGrad", rows, rr)
			}
		}
	}
}

// TestRoutedPredictVar checks the independent-error uncertainty combination.
func TestRoutedPredictVar(t *testing.T) {
	u := uncertainStub{v: 3, varr: 4}
	r, err := NewRouted(2, []Model{u, Func{D: 1, F: func(x []float64) float64 { return 10 }}},
		[][]int{{0}, {1}}, []float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	mean, variance := r.PredictVar([]float64{0.5, 0.5})
	if mean != 2*3+10 || variance != 4*4 {
		t.Fatalf("PredictVar = %v, %v", mean, variance)
	}
}

type uncertainStub struct{ v, varr float64 }

func (u uncertainStub) Dim() int                                  { return 1 }
func (u uncertainStub) Predict(x []float64) float64               { return u.v }
func (u uncertainStub) PredictVar(x []float64) (float64, float64) { return u.v, u.varr }

// TestNewRoutedValidation covers the routing-table error paths.
func TestNewRoutedValidation(t *testing.T) {
	m1 := Func{D: 1, F: func(x []float64) float64 { return x[0] }}
	cases := []struct {
		name    string
		d       int
		models  []Model
		index   [][]int
		weights []float64
	}{
		{"zero dim", 0, []Model{m1}, [][]int{{0}}, nil},
		{"no models", 3, nil, nil, nil},
		{"index rows mismatch", 3, []Model{m1}, [][]int{{0}, {1}}, nil},
		{"weights mismatch", 3, []Model{m1}, [][]int{{0}}, []float64{1, 2}},
		{"nil model", 3, []Model{nil}, [][]int{{0}}, nil},
		{"dim mismatch", 3, []Model{m1}, [][]int{{0, 1}}, nil},
		{"index out of range", 3, []Model{m1}, [][]int{{3}}, nil},
		{"negative index", 3, []Model{m1}, [][]int{{-1}}, nil},
	}
	for _, tc := range cases {
		if _, err := NewRouted(tc.d, tc.models, tc.index, tc.weights); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if _, err := NewRouted(3, []Model{m1}, [][]int{{2}}, nil); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}

// TestRoutedIdentityMatchesSum pins the degenerate case: with identity
// routing (every stage reads the full vector) Routed is the inline weighted
// sum of its stages, bit for bit, in value and fused gradient.
func TestRoutedIdentityMatchesSum(t *testing.T) {
	d := 4
	models := []Model{
		Func{D: d, F: func(x []float64) float64 { return x[0]*x[1] + x[2] }},
		Func{D: d, F: func(x []float64) float64 { return x[3] * x[3] }},
	}
	weights := []float64{1.5, 0.5}
	ident := []int{0, 1, 2, 3}
	r, err := NewRouted(d, models, [][]int{ident, ident}, weights)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		x := randPoint(rng, d)
		sv, sg := 0.0, make([]float64, d)
		for i, m := range models {
			vi, gi := EnsureValueGrad(m).ValueGrad(x, nil)
			sv += weights[i] * vi
			for k := range sg {
				sg[k] += weights[i] * gi[k]
			}
		}
		if r.Predict(x) != sv {
			t.Fatal("Predict differs from the weighted sum under identity routing")
		}
		rv, rg := r.ValueGrad(x, nil)
		if rv != sv || !reflect.DeepEqual(rg, sg) {
			t.Fatal("ValueGrad differs from the weighted sum under identity routing")
		}
	}
}
