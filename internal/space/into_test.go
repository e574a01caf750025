package space_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/space"
	"repro/internal/spark"
)

// intoSpaces are the spaces the allocation-free variants are checked on: the
// two Spark knob spaces (log-scale integers, booleans, continuous knobs) and
// a composite with tied knobs and a categorical stage knob.
func intoSpaces(t *testing.T) map[string]*space.Space {
	t.Helper()
	c, err := space.NewComposite(
		[]space.Var{
			{Name: "instances", Kind: space.Integer, Min: 2, Max: 14},
			{Name: "cores", Kind: space.Integer, Min: 1, Max: 4},
		},
		[]space.Stage{
			{Name: "etl", Vars: []space.Var{
				{Name: "instances", Kind: space.Integer, Min: 2, Max: 14},
				{Name: "partitions", Kind: space.Integer, Min: 8, Max: 1000, Log: true},
				{Name: "compress", Kind: space.Boolean},
			}},
			{Name: "ml", Vars: []space.Var{
				{Name: "rate", Kind: space.Continuous, Min: 1e-4, Max: 1, Log: true},
				{Name: "cores", Kind: space.Integer, Min: 1, Max: 4},
				{Name: "solver", Kind: space.Categorical, Levels: []string{"sgd", "lbfgs", "adam"}},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*space.Space{
		"batch":     spark.BatchSpace(),
		"stream":    spark.StreamSpace(),
		"composite": c.Space,
	}
}

// TestIntoVariantsMatch: DecodeInto, EncodeInto and RoundInto write exactly
// what Decode, Encode and Round return, on random points that include
// out-of-box coordinates, into reused (dirty) buffers and, for RoundInto, in
// place.
func TestIntoVariantsMatch(t *testing.T) {
	for name, spc := range intoSpaces(t) {
		rng := rand.New(rand.NewSource(1))
		vals := make(space.Values, spc.NumVars())
		enc := make([]float64, spc.Dim())
		rounded := make([]float64, spc.Dim())
		for trial := 0; trial < 500; trial++ {
			x := make([]float64, spc.Dim())
			for d := range x {
				x[d] = rng.Float64()*1.4 - 0.2
			}
			want, err := spc.Decode(x)
			if err != nil {
				t.Fatal(err)
			}
			if err := spc.DecodeInto(vals, x); err != nil || !reflect.DeepEqual(vals, want) {
				t.Fatalf("%s: DecodeInto = %v (%v), Decode = %v", name, vals, err, want)
			}
			wantEnc, err := spc.Encode(want)
			if err != nil {
				t.Fatal(err)
			}
			if err := spc.EncodeInto(enc, want); err != nil || !reflect.DeepEqual(enc, wantEnc) {
				t.Fatalf("%s: EncodeInto = %v (%v), Encode = %v", name, enc, err, wantEnc)
			}
			wantRound, err := spc.Round(x)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantRound, wantEnc) {
				t.Fatalf("%s: Round = %v, Encode(Decode) = %v", name, wantRound, wantEnc)
			}
			if err := spc.RoundInto(rounded, x); err != nil || !reflect.DeepEqual(rounded, wantRound) {
				t.Fatalf("%s: RoundInto = %v (%v), Round = %v", name, rounded, err, wantRound)
			}
			if err := spc.RoundInto(x, x); err != nil || !reflect.DeepEqual(x, wantRound) {
				t.Fatalf("%s: in-place RoundInto = %v (%v), Round = %v", name, x, err, wantRound)
			}
		}
	}
}

// TestIntoVariantsErrors: the Into variants reject the inputs their
// allocating counterparts reject, plus wrong-length outputs.
func TestIntoVariantsErrors(t *testing.T) {
	spc := intoSpaces(t)["composite"]
	x := make([]float64, spc.Dim())
	vals := make(space.Values, spc.NumVars())
	if err := spc.DecodeInto(vals, x[:1]); err == nil {
		t.Error("DecodeInto accepted a short point")
	}
	if err := spc.DecodeInto(vals[:1], x); err == nil {
		t.Error("DecodeInto accepted a short output")
	}
	if err := spc.EncodeInto(x, vals[:1]); err == nil {
		t.Error("EncodeInto accepted short values")
	}
	if err := spc.EncodeInto(x[:1], vals); err == nil {
		t.Error("EncodeInto accepted a short output")
	}
	bad := append(space.Values(nil), vals...)
	bad[spc.Lookup("ml.solver")] = 3
	if err := spc.EncodeInto(x, bad); err == nil {
		t.Error("EncodeInto accepted an out-of-range level")
	}
	if err := spc.RoundInto(x[:1], x); err == nil {
		t.Error("RoundInto accepted a short output")
	}
	if err := spc.RoundInto(x, x[:1]); err == nil {
		t.Error("RoundInto accepted a short point")
	}
}

// TestIntoVariantsAllocationFree pins the contract MOGD's per-iteration
// rounding relies on: no allocations.
func TestIntoVariantsAllocationFree(t *testing.T) {
	for name, spc := range intoSpaces(t) {
		x := make([]float64, spc.Dim())
		for d := range x {
			x[d] = float64(d%5) / 4
		}
		vals := make(space.Values, spc.NumVars())
		out := make([]float64, spc.Dim())
		for fn, f := range map[string]func(){
			"DecodeInto": func() { _ = spc.DecodeInto(vals, x) },
			"EncodeInto": func() { _ = spc.EncodeInto(out, vals) },
			"RoundInto":  func() { _ = spc.RoundInto(out, x) },
		} {
			if a := testing.AllocsPerRun(100, f); a != 0 {
				t.Errorf("%s: %s allocates %.1f/op, want 0", name, fn, a)
			}
		}
	}
}
