package space_test

import (
	"math"
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
		var read space.Value
		for fn, f := range map[string]func(){
			"Decode": func() {
				// The result is read, not kept, as the cores objective
				// reads it.
				if v, err := spc.Decode(x); err == nil {
					read = v[0]
				}
			},
			"DecodeInto": func() { _ = spc.DecodeInto(vals, x) },
			"EncodeInto": func() { _ = spc.EncodeInto(out, vals) },
			"RoundInto":  func() { _ = spc.RoundInto(out, x) },
		} {
			if a := testing.AllocsPerRun(100, f); a != 0 {
				t.Errorf("%s: %s allocates %.1f/op, want 0", name, fn, a)
			}
		}
		_ = read
	}
}

// TestCodecMatchesReference: Decode, DecodeInto, Encode and RoundInto give
// the bits of the reference codec (the per-variable arithmetic before the
// codec table) at the edges of the box and past them: every coordinate 0, 1
// or 0.5, one ulp outside [0,1], or NaN, alone and all at once (which ties
// every categorical level), and on random points. Encode is also checked on
// raw values at, between and one ulp past each knob's bounds, on NaN, and on
// values it must reject.
func TestCodecMatchesReference(t *testing.T) {
	edges := []float64{0, 1, 0.5, math.Nextafter(0, -1), math.Nextafter(1, 2), math.NaN()}
	for name, spc := range intoSpaces(t) {
		ref := space.NewReferenceCodec(spc)
		vals := make(space.Values, spc.NumVars())
		rounded := make([]float64, spc.Dim())
		check := func(x []float64) {
			t.Helper()
			want := ref.Decode(x)
			got, err := spc.Decode(x)
			if err != nil || !space.SameBits(got, want) {
				t.Fatalf("%s: Decode(%v) = %v (%v), reference %v", name, x, got, err, want)
			}
			if err := spc.DecodeInto(vals, x); err != nil || !space.SameBits(vals, want) {
				t.Fatalf("%s: DecodeInto(%v) = %v (%v), reference %v", name, x, vals, err, want)
			}
			if err := spc.RoundInto(rounded, x); err != nil || !space.SameBits(rounded, ref.Round(x)) {
				t.Fatalf("%s: RoundInto(%v) = %v (%v), reference %v", name, x, rounded, err, ref.Round(x))
			}
			checkEncode(t, name, spc, ref, want)
		}
		x := make([]float64, spc.Dim())
		for _, e := range edges {
			for d := range x {
				x[d] = e
			}
			check(x)
			for d := range x {
				for i := range x {
					x[i] = 0.5
				}
				x[d] = e
				check(x)
			}
		}
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 500; trial++ {
			for d := range x {
				if rng.Intn(4) == 0 {
					x[d] = edges[rng.Intn(len(edges))]
				} else {
					x[d] = rng.Float64()*1.4 - 0.2
				}
			}
			check(x)
		}

		for d := range x {
			x[d] = 0.5
		}
		mid := ref.Decode(x)
		for i, v := range spc.Vars {
			var raws []float64
			switch v.Kind {
			case space.Continuous, space.Integer:
				raws = []float64{v.Min, v.Max, (v.Min + v.Max) / 2, math.Nextafter(v.Min, math.Inf(-1)), math.Nextafter(v.Max, math.Inf(1))}
			case space.Boolean:
				raws = []float64{0, 1, 0.5}
			case space.Categorical:
				raws = []float64{0, float64(len(v.Levels) - 1), float64(len(v.Levels)), -1, 0.5}
			}
			for _, raw := range append(raws, math.NaN()) {
				vals := append(space.Values(nil), mid...)
				vals[i] = space.Value(raw)
				checkEncode(t, name, spc, ref, vals)
			}
		}
	}
}

// checkEncode fails t unless Encode of vals gives the reference's bits, or
// both reject vals.
func checkEncode(t *testing.T, name string, spc *space.Space, ref *space.ReferenceCodec, vals space.Values) {
	t.Helper()
	want, wantErr := ref.Encode(vals)
	got, err := spc.Encode(vals)
	if (err != nil) != (wantErr != nil) || !space.SameBits(got, want) {
		t.Fatalf("%s: Encode(%v) = %v (%v), reference %v (%v)", name, vals, got, err, want, wantErr)
	}
}
