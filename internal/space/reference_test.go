package space

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// ReferenceCodec is the per-variable arithmetic Space used before its codec
// table, kept verbatim as the reference the table must reproduce bit for
// bit: decodeVar, denormalize, normalize and encodeVar reading the variable
// definitions, an offset per variable and the log bounds New cached. It is
// exported for the external test package (into_test.go).
type ReferenceCodec struct {
	vars            []Var
	offsets         []int
	logMin, logSpan []float64
	dim             int
}

// NewReferenceCodec lays out s's variables the way New did.
func NewReferenceCodec(s *Space) *ReferenceCodec {
	r := &ReferenceCodec{
		vars:    s.Vars,
		logMin:  make([]float64, len(s.Vars)),
		logSpan: make([]float64, len(s.Vars)),
	}
	for i, v := range s.Vars {
		if (v.Kind == Continuous || v.Kind == Integer) && v.Log {
			r.logMin[i] = math.Log(v.Min)
			r.logSpan[i] = math.Log(v.Max) - r.logMin[i]
		}
		r.offsets = append(r.offsets, r.dim)
		if v.Kind == Categorical {
			r.dim += len(v.Levels)
		} else {
			r.dim++
		}
	}
	return r
}

// Decode is the reference Decode of a point of the right length.
func (r *ReferenceCodec) Decode(x []float64) Values {
	vals := make(Values, len(r.vars))
	for i := range r.vars {
		vals[i] = r.decodeVar(x, i)
	}
	return vals
}

// Encode is the reference Encode of a full assignment.
func (r *ReferenceCodec) Encode(vals Values) ([]float64, error) {
	x := make([]float64, r.dim)
	for i := range r.vars {
		if err := r.encodeVar(x, i, float64(vals[i])); err != nil {
			return nil, err
		}
	}
	return x, nil
}

// Round is the reference Round of a point of the right length.
func (r *ReferenceCodec) Round(x []float64) []float64 {
	out := make([]float64, r.dim)
	for i := range r.vars {
		_ = r.encodeVar(out, i, float64(r.decodeVar(x, i)))
	}
	return out
}

func (r *ReferenceCodec) encodeVar(x []float64, i int, raw float64) error {
	v := &r.vars[i]
	off := r.offsets[i]
	switch v.Kind {
	case Continuous, Integer:
		x[off] = r.normalize(i, raw)
	case Boolean:
		if raw != 0 && raw != 1 {
			return fmt.Errorf("space: %s boolean value %v not in {0,1}", v.Name, raw)
		}
		x[off] = raw
	case Categorical:
		idx := int(raw)
		if float64(idx) != raw || idx < 0 || idx >= len(v.Levels) {
			return fmt.Errorf("space: %s categorical index %v out of range", v.Name, raw)
		}
		block := x[off : off+len(v.Levels)]
		for j := range block {
			block[j] = 0
		}
		block[idx] = 1
	}
	return nil
}

func (r *ReferenceCodec) normalize(i int, raw float64) float64 {
	v := &r.vars[i]
	if v.Max == v.Min {
		return 0
	}
	if v.Log {
		return linalg.Clamp((math.Log(raw)-r.logMin[i])/r.logSpan[i], 0, 1)
	}
	return linalg.Clamp((raw-v.Min)/(v.Max-v.Min), 0, 1)
}

func (r *ReferenceCodec) denormalize(i int, u float64) float64 {
	v := &r.vars[i]
	u = linalg.Clamp(u, 0, 1)
	if v.Log {
		return math.Exp(r.logMin[i] + u*r.logSpan[i])
	}
	return v.Min + u*(v.Max-v.Min)
}

func (r *ReferenceCodec) decodeVar(x []float64, i int) Value {
	v := &r.vars[i]
	off := r.offsets[i]
	switch v.Kind {
	case Continuous:
		return Value(linalg.Clamp(r.denormalize(i, x[off]), v.Min, v.Max))
	case Integer:
		return Value(math.Round(linalg.Clamp(r.denormalize(i, x[off]), v.Min, v.Max)))
	case Boolean:
		if x[off] >= 0.5 {
			return 1
		}
		return 0
	case Categorical:
		best, bestV := 0, math.Inf(-1)
		for j := 0; j < len(v.Levels); j++ {
			if x[off+j] > bestV {
				best, bestV = j, x[off+j]
			}
		}
		return Value(best)
	}
	return 0
}

// SameBits reports whether a and b hold the same float64 bit patterns, so
// NaNs compare by payload and 0 differs from −0.
func SameBits[T ~float64](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return false
		}
	}
	return true
}
