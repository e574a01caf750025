package space

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

func testComposite(t *testing.T) *Composite {
	t.Helper()
	c, err := NewComposite(
		[]Var{
			{Name: "instances", Kind: Integer, Min: 2, Max: 14},
			{Name: "cores", Kind: Integer, Min: 1, Max: 4},
		},
		[]Stage{
			{Name: "etl", Vars: []Var{
				{Name: "instances", Kind: Integer, Min: 2, Max: 14}, // tied
				{Name: "partitions", Kind: Integer, Min: 8, Max: 1000, Log: true},
				{Name: "compress", Kind: Boolean},
			}},
			{Name: "ml", Vars: []Var{
				{Name: "batch", Kind: Integer, Min: 2500, Max: 40000, Log: true},
				{Name: "cores", Kind: Integer, Min: 1, Max: 4}, // tied
				{Name: "solver", Kind: Categorical, Levels: []string{"sgd", "lbfgs", "adam"}},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompositeLayout(t *testing.T) {
	c := testComposite(t)
	// Flat layout: instances, cores, etl.partitions, etl.compress, ml.batch,
	// ml.solver (one-hot, 3 dims) → 2+2+3 = 8 encoded dims, 6 variables.
	if c.NumVars() != 6 {
		t.Fatalf("NumVars = %d, want 6", c.NumVars())
	}
	if c.Dim() != 8 {
		t.Fatalf("Dim = %d, want 8", c.Dim())
	}
	wantNames := []string{"instances", "cores", "etl.partitions", "etl.compress", "ml.batch", "ml.solver"}
	for i, n := range wantNames {
		if c.Vars[i].Name != n {
			t.Fatalf("flat var %d = %q, want %q", i, c.Vars[i].Name, n)
		}
	}
	// Lookup works on the concatenated space, for shared and qualified names.
	if c.Lookup("cores") != 1 {
		t.Fatalf("Lookup(cores) = %d", c.Lookup("cores"))
	}
	if c.Lookup(QualifiedName("ml", "batch")) != 4 {
		t.Fatalf("Lookup(ml.batch) = %d", c.Lookup("ml.batch"))
	}
	// Stage sub-vectors: etl = [instances, partitions, compress] at flat dims
	// [0, 2, 3]; ml = [batch, cores, solver×3] at [4, 1, 5, 6, 7].
	if got := c.StageDims(0); !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf("StageDims(etl) = %v", got)
	}
	if got := c.StageDims(1); !reflect.DeepEqual(got, []int{4, 1, 5, 6, 7}) {
		t.Fatalf("StageDims(ml) = %v", got)
	}
	for i := range c.Stages {
		if len(c.StageDims(i)) != c.StageSpace(i).Dim() {
			t.Fatalf("stage %d dims %d != sub-space dim %d", i, len(c.StageDims(i)), c.StageSpace(i).Dim())
		}
	}
}

// TestCompositeEncodeGather pins the tying semantics: a gathered stage
// sub-vector is exactly the stage sub-space's own encoding of the stage's raw
// values, with tied variables reading the shared block.
func TestCompositeEncodeGather(t *testing.T) {
	c := testComposite(t)
	vals := Values{10, 3, 64, 1, 5000, 2} // instances, cores, etl.partitions, etl.compress, ml.batch, ml.solver
	x, err := c.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.Stages {
		sv, err := c.StageValues(vals, i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.StageSpace(i).Encode(sv)
		if err != nil {
			t.Fatal(err)
		}
		got := c.Gather(i, x, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stage %d gather %v != sub-space encode %v", i, got, want)
		}
		// Gather honors a correctly-sized destination buffer.
		buf := make([]float64, len(want))
		if got2 := c.Gather(i, x, buf); &got2[0] != &buf[0] || !reflect.DeepEqual(got2, want) {
			t.Fatalf("stage %d gather did not reuse the buffer", i)
		}
	}
	// Round on the flat space keeps tied variables consistent by construction
	// (a tied variable is one variable) and round-trips the lattice point.
	rx, err := c.Round(x)
	if err != nil {
		t.Fatal(err)
	}
	rvals, err := c.Decode(rx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rvals, vals) {
		t.Fatalf("Round/Decode round-trip: got %v want %v", rvals, vals)
	}
}

func TestCompositeValidation(t *testing.T) {
	shared := []Var{{Name: "cores", Kind: Integer, Min: 1, Max: 4}}
	ok := []Stage{{Name: "s1", Vars: []Var{{Name: "a", Kind: Boolean}}}}
	cases := []struct {
		name   string
		shared []Var
		stages []Stage
	}{
		{"no stages", shared, nil},
		{"unnamed stage", shared, []Stage{{Vars: ok[0].Vars}}},
		{"duplicate stage", shared, []Stage{ok[0], ok[0]}},
		{"empty stage", shared, []Stage{{Name: "s1"}}},
		{"duplicate shared", append(shared, shared[0]), ok},
		{"duplicate stage var", shared, []Stage{{Name: "s1", Vars: []Var{{Name: "a", Kind: Boolean}, {Name: "a", Kind: Boolean}}}}},
		{"tied mismatch", shared, []Stage{{Name: "s1", Vars: []Var{{Name: "cores", Kind: Integer, Min: 1, Max: 8}}}}},
		{"bad stage var", shared, []Stage{{Name: "s1", Vars: []Var{{Name: "b", Kind: Integer, Min: 2, Max: 1}}}}},
	}
	for _, tc := range cases {
		if _, err := NewComposite(tc.shared, tc.stages); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	// A tied variable must match the shared definition exactly, including Log
	// and Levels.
	if _, err := NewComposite(
		[]Var{{Name: "mode", Kind: Categorical, Levels: []string{"a", "b"}}},
		[]Stage{{Name: "s1", Vars: []Var{{Name: "mode", Kind: Categorical, Levels: []string{"a", "c"}}}}},
	); err == nil {
		t.Error("categorical level mismatch accepted")
	}
}

// TestCompositeSharedOnlyStage covers a stage made entirely of tied
// variables: its sub-vector is the shared block.
func TestCompositeSharedOnlyStage(t *testing.T) {
	c, err := NewComposite(
		[]Var{{Name: "cores", Kind: Integer, Min: 1, Max: 4}},
		[]Stage{{Name: "s1", Vars: []Var{{Name: "cores", Kind: Integer, Min: 1, Max: 4}}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dim() != 1 || c.NumVars() != 1 {
		t.Fatalf("dim %d vars %d, want 1/1", c.Dim(), c.NumVars())
	}
	if got := c.StageDims(0); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("StageDims = %v", got)
	}
}

// fuzzComposite is a two-stage composite over every knob kind: a shared
// integer tied into both stages, a shared continuous knob tied into one,
// log-scale integers and a log-scale continuous knob, a boolean and a
// categorical knob.
func fuzzComposite(t testing.TB) *Composite {
	t.Helper()
	c, err := NewComposite(
		[]Var{
			{Name: "instances", Kind: Integer, Min: 2, Max: 14},
			{Name: "memFraction", Kind: Continuous, Min: 0.3, Max: 0.9},
		},
		[]Stage{
			{Name: "etl", Vars: []Var{
				{Name: "instances", Kind: Integer, Min: 2, Max: 14}, // tied
				{Name: "partitions", Kind: Integer, Min: 8, Max: 1000, Log: true},
				{Name: "compress", Kind: Boolean},
				{Name: "memFraction", Kind: Continuous, Min: 0.3, Max: 0.9}, // tied
			}},
			{Name: "ml", Vars: []Var{
				{Name: "solver", Kind: Categorical, Levels: []string{"sgd", "lbfgs", "adam"}},
				{Name: "batch", Kind: Integer, Min: 2500, Max: 40000, Log: true},
				{Name: "instances", Kind: Integer, Min: 2, Max: 14}, // tied
				{Name: "stepSize", Kind: Continuous, Min: 1e-4, Max: 0.5, Log: true},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// inDomain reports whether raw is a value variable v can take.
func inDomain(v Var, raw float64) bool {
	switch v.Kind {
	case Continuous:
		return raw >= v.Min && raw <= v.Max
	case Integer:
		return raw >= v.Min && raw <= v.Max && raw == math.Round(raw)
	case Boolean:
		return raw == 0 || raw == 1
	default:
		return raw >= 0 && raw < float64(len(v.Levels)) && raw == math.Round(raw)
	}
}

// FuzzCompositeRoundTrip decodes any point of a composite's solver space
// and checks that Decode and Round give the reference codec's bits, that the
// values lie in their knobs' domains, that Round lands
// on a point decoding to the same values, and that each stage's Gather and
// StageValues agree with the stage sub-space's own Encode and Decode. The
// input holds one coordinate per encoded dimension (missing ones are 0.5):
// a control byte c, then for even c a raw little-endian float64 and for odd
// c one byte b, read as the fraction b/255·1.5 − 0.25 (the unit interval and
// a margin that Decode clamps). NaN is no point of the space; inputs holding
// one are skipped.
func FuzzCompositeRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 255, 1, 42, 1, 128, 1, 200, 1, 17, 1, 170, 1, 85, 1, 2})
	f.Add(append([]byte{0, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 128}, bytes.Repeat([]byte{1, 43}, 8)...))
	f.Add(append([]byte{0, 0, 0, 0, 0, 0, 0, 0xf0, 0xff, 0, 1, 0, 0, 0, 0, 0, 0, 0x80}, bytes.Repeat([]byte{1, 212}, 8)...))
	c := fuzzComposite(f)
	ref := NewReferenceCodec(c.Space)
	f.Fuzz(func(t *testing.T, data []byte) {
		x := make([]float64, c.Dim())
		for d := range x {
			x[d] = 0.5
			switch {
			case len(data) >= 9 && data[0]%2 == 0:
				x[d] = math.Float64frombits(binary.LittleEndian.Uint64(data[1:]))
				data = data[9:]
			case len(data) >= 2 && data[0]%2 == 1:
				x[d] = float64(data[1])/255*1.5 - 0.25
				data = data[2:]
			}
			if math.IsNaN(x[d]) {
				return
			}
		}
		vals, err := c.Decode(x)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.Decode(x); !SameBits(vals, want) {
			t.Fatalf("Decode(%v) = %v, reference %v", x, vals, want)
		}
		for i, v := range c.Vars {
			if !inDomain(v, float64(vals[i])) {
				t.Fatalf("%s decodes to %v, outside its domain (x = %v)", v.Name, vals[i], x)
			}
		}
		rx, err := c.Round(x)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.Round(x); !SameBits(rx, want) {
			t.Fatalf("Round(%v) = %v, reference %v", x, rx, want)
		}
		rvals, err := c.Decode(rx)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range c.Vars {
			a, b := float64(rvals[i]), float64(vals[i])
			if v.Kind == Continuous {
				if math.Abs(a-b) > 1e-12*math.Abs(b) {
					t.Fatalf("%s: Round(x) decodes to %v, x to %v", v.Name, a, b)
				}
			} else if a != b {
				t.Fatalf("%s: Round(x) decodes to %v, x to %v", v.Name, a, b)
			}
		}
		for i := range c.Stages {
			sub := c.StageSpace(i)
			sv, err := c.StageValues(vals, i)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sub.Decode(c.Gather(i, x, nil))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, sv) {
				t.Fatalf("stage %d: sub-space decodes its gathered dims to %v, StageValues gives %v", i, got, sv)
			}
			enc, err := sub.Encode(sv)
			if err != nil {
				t.Fatal(err)
			}
			if g := c.Gather(i, rx, nil); !reflect.DeepEqual(g, enc) {
				t.Fatalf("stage %d: gathered Round(x) %v, sub-space encoding %v", i, g, enc)
			}
		}
	})
}
