// Package space describes the decision-variable space of a tuning problem
// and the variable transformation of the paper's MOGD solver (§IV-B step 1):
// categorical parameters are one-hot encoded, all variables are normalized
// to [0,1] and relaxed to continuous values, and solutions are mapped back by
// rounding integers and taking the argmax of one-hot groups.
//
// Every model in this repository is trained on, and optimized over, the
// encoded space; the Spark simulator and the recommendation output consume
// decoded Values.
package space

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Kind enumerates variable types.
type Kind int

// Variable kinds, mirroring the paper's taxonomy of Spark parameters.
const (
	Continuous  Kind = iota // real-valued in [Min, Max]
	Integer                 // integer-valued in [Min, Max]
	Boolean                 // {false, true}, e.g. spark.shuffle.compress
	Categorical             // one of Levels, one-hot encoded
)

// Var is a single decision variable (a "knob").
type Var struct {
	Name   string
	Kind   Kind
	Min    float64  // Continuous/Integer lower bound (inclusive)
	Max    float64  // Continuous/Integer upper bound (inclusive)
	Levels []string // Categorical levels
	// Log requests log-scale normalization for Continuous/Integer variables
	// whose range spans orders of magnitude (e.g. broadcast thresholds).
	Log bool
}

// Space is an ordered collection of variables with a fixed encoding layout.
type Space struct {
	Vars []Var
	// codecs[i] is variable i's entry in the encoding table, read by every
	// encode, decode and round (MOGD rounds every start's iterate each Adam
	// step, and the server's cores objective decodes each probe point).
	codecs []codec
	dim    int
	index  map[string]int // name → first Vars index, resolved at New time
}

// codec is one variable's encoding: where its block of the encoded vector
// starts and how wide it is, and the constants its normalization reads, so
// the hot paths never recompute Max−Min or the log bounds.
type codec struct {
	kind       Kind
	log        bool
	off, width int
	min, max   float64
	span       float64 // max − min
	// logMin and logSpan are log(min) and log(max) − log(min) of a
	// log-scale variable.
	logMin, logSpan float64
}

// New validates the variable definitions and computes the encoding layout.
func New(vars []Var) (*Space, error) {
	s := &Space{
		Vars:   vars,
		codecs: make([]codec, len(vars)),
		index:  make(map[string]int, len(vars)),
	}
	for i, v := range vars {
		if v.Name == "" {
			return nil, fmt.Errorf("space: variable %d has no name", i)
		}
		c := codec{kind: v.Kind, log: v.Log, off: s.dim, width: 1, min: v.Min, max: v.Max, span: v.Max - v.Min}
		switch v.Kind {
		case Continuous, Integer:
			if v.Max < v.Min {
				return nil, fmt.Errorf("space: %s has Max < Min", v.Name)
			}
			if v.Log && v.Min <= 0 {
				return nil, fmt.Errorf("space: %s requests log scale with Min <= 0", v.Name)
			}
			if v.Log {
				c.logMin = math.Log(v.Min)
				c.logSpan = math.Log(v.Max) - c.logMin
			}
		case Boolean:
		case Categorical:
			if len(v.Levels) < 2 {
				return nil, fmt.Errorf("space: %s needs at least 2 levels", v.Name)
			}
			c.width = len(v.Levels)
		default:
			return nil, fmt.Errorf("space: %s has unknown kind %d", v.Name, v.Kind)
		}
		if _, dup := s.index[v.Name]; !dup {
			s.index[v.Name] = i
		}
		s.codecs[i] = c
		s.dim += c.width
	}
	return s, nil
}

// MustNew is New for static variable tables; it panics on error.
func MustNew(vars []Var) *Space {
	s, err := New(vars)
	if err != nil {
		panic(err)
	}
	return s
}

// Dim returns the encoded dimensionality D.
func (s *Space) Dim() int { return s.dim }

// NumVars returns the number of raw variables.
func (s *Space) NumVars() int { return len(s.Vars) }

// Value is a raw variable assignment: float for Continuous, integral float
// for Integer, 0/1 for Boolean, level index for Categorical.
type Value float64

// Values is a full raw assignment, one entry per Var in order.
type Values []Value

// Encode maps a raw assignment to the normalized [0,1]^D solver space.
func (s *Space) Encode(vals Values) ([]float64, error) {
	x := make([]float64, s.dim)
	if err := s.EncodeInto(x, vals); err != nil {
		return nil, err
	}
	return x, nil
}

// EncodeInto is Encode writing into dst, which must have length Dim(). It
// allocates nothing; on error dst's contents are unspecified.
func (s *Space) EncodeInto(dst []float64, vals Values) error {
	if len(vals) != len(s.Vars) {
		return fmt.Errorf("space: Encode got %d values for %d variables", len(vals), len(s.Vars))
	}
	if len(dst) != s.dim {
		return fmt.Errorf("space: Encode got a %d-dim output, want %d", len(dst), s.dim)
	}
	for i := range s.Vars {
		if err := s.encodeVar(dst, i, float64(vals[i])); err != nil {
			return err
		}
	}
	return nil
}

// encodeVar writes variable i's encoding of raw into its block of x.
func (s *Space) encodeVar(x []float64, i int, raw float64) error {
	c := &s.codecs[i]
	switch c.kind {
	case Continuous, Integer:
		switch {
		case c.max == c.min:
			x[c.off] = 0
		case c.log:
			x[c.off] = linalg.Clamp((math.Log(raw)-c.logMin)/c.logSpan, 0, 1)
		default:
			x[c.off] = linalg.Clamp((raw-c.min)/c.span, 0, 1)
		}
	case Boolean:
		if raw != 0 && raw != 1 {
			return fmt.Errorf("space: %s boolean value %v not in {0,1}", s.Vars[i].Name, raw)
		}
		x[c.off] = raw
	case Categorical:
		idx := int(raw)
		if float64(idx) != raw || idx < 0 || idx >= c.width {
			return fmt.Errorf("space: %s categorical index %v out of range", s.Vars[i].Name, raw)
		}
		block := x[c.off : c.off+c.width]
		for j := range block {
			block[j] = 0
		}
		block[idx] = 1
	}
	return nil
}

// decodeStack is the number of values Decode decodes into on its caller's
// stack; it covers the Spark knob spaces.
const decodeStack = 16

// Decode maps a point of the continuous solver space back to a valid raw
// assignment: integers are rounded to the closest value, booleans snapped to
// the nearer of {0,1}, and categorical groups resolved by argmax (§IV-B).
//
// Decode is small enough to inline, so a caller that only reads the result
// of a space of up to 16 variables allocates nothing: the values live in an
// array on the caller's stack, which the compiler moves to the heap only
// when the caller keeps them.
func (s *Space) Decode(x []float64) (Values, error) {
	var buf [decodeStack]Value
	return s.decode(&buf, x)
}

// decode is Decode writing into buf when the space fits it.
func (s *Space) decode(buf *[decodeStack]Value, x []float64) (Values, error) {
	var vals Values
	if n := len(s.codecs); n <= len(buf) {
		vals = buf[:n:n]
	} else {
		vals = make(Values, n)
	}
	if err := s.DecodeInto(vals, x); err != nil {
		return nil, err
	}
	return vals, nil
}

// DecodeInto is Decode writing into dst, which must have length NumVars(). It
// allocates nothing.
func (s *Space) DecodeInto(dst Values, x []float64) error {
	if len(x) != s.dim {
		return fmt.Errorf("space: Decode got %d dims, want %d", len(x), s.dim)
	}
	if len(dst) != len(s.codecs) {
		return fmt.Errorf("space: Decode got %d output values for %d variables", len(dst), len(s.codecs))
	}
	for i := range s.codecs {
		dst[i] = s.decodeVar(x, i)
	}
	return nil
}

// decodeVar returns variable i's raw value at x.
func (s *Space) decodeVar(x []float64, i int) Value {
	c := &s.codecs[i]
	switch c.kind {
	case Continuous, Integer:
		u := linalg.Clamp(x[c.off], 0, 1)
		var raw float64
		if c.log {
			raw = math.Exp(c.logMin + u*c.logSpan)
		} else {
			raw = c.min + u*c.span
		}
		// min + u·span can round past max (0.3 + 1·0.6 is
		// 0.9000000000000001), so the value is clamped like an integer's.
		raw = linalg.Clamp(raw, c.min, c.max)
		if c.kind == Integer {
			raw = math.Round(raw)
		}
		return Value(raw)
	case Boolean:
		if x[c.off] >= 0.5 {
			return 1
		}
		return 0
	case Categorical:
		best, bestV := 0, math.Inf(-1)
		for j, v := range x[c.off : c.off+c.width] {
			if v > bestV {
				best, bestV = j, v
			}
		}
		return Value(best)
	}
	return 0
}

// Round snaps a continuous solver point onto the lattice of valid
// configurations, returning the encoded form of Decode(x). PF's approximate
// algorithms use this to evaluate objectives at the configuration that would
// actually be deployed.
func (s *Space) Round(x []float64) ([]float64, error) {
	out := make([]float64, s.dim)
	if err := s.RoundInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}

// RoundInto is Round writing into dst, which must have length Dim() and may
// be x itself. It decodes and re-encodes one variable at a time, so it
// allocates nothing.
func (s *Space) RoundInto(dst, x []float64) error {
	if len(x) != s.dim {
		return fmt.Errorf("space: Decode got %d dims, want %d", len(x), s.dim)
	}
	if len(dst) != s.dim {
		return fmt.Errorf("space: Round got a %d-dim output, want %d", len(dst), s.dim)
	}
	for i := range s.codecs {
		// A decoded value is always in its variable's domain, so the encode
		// cannot fail.
		_ = s.encodeVar(dst, i, float64(s.decodeVar(x, i)))
	}
	return nil
}

// Lookup returns the index of the named variable, or -1. The name→index map
// is resolved once at New time, so Lookup is O(1) — it sits under Get on the
// example and trace-collection hot paths, where the old linear scan dominated
// per-knob access cost (see BenchmarkLookup vs BenchmarkLookupLinearRef).
func (s *Space) Lookup(name string) int {
	if i, ok := s.index[name]; ok {
		return i
	}
	return -1
}

// Get returns the raw value of the named variable from vals.
func (s *Space) Get(vals Values, name string) (float64, error) {
	i := s.Lookup(name)
	if i < 0 {
		return 0, fmt.Errorf("space: unknown variable %q", name)
	}
	return float64(vals[i]), nil
}

// Describe formats a raw assignment as name=value pairs for logs and CLIs.
func (s *Space) Describe(vals Values) string {
	out := ""
	for i, v := range s.Vars {
		if i > 0 {
			out += " "
		}
		switch v.Kind {
		case Categorical:
			out += fmt.Sprintf("%s=%s", v.Name, v.Levels[int(vals[i])])
		case Boolean:
			out += fmt.Sprintf("%s=%t", v.Name, vals[i] == 1)
		case Integer:
			out += fmt.Sprintf("%s=%d", v.Name, int(vals[i]))
		default:
			out += fmt.Sprintf("%s=%.4g", v.Name, float64(vals[i]))
		}
	}
	return out
}
