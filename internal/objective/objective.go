// Package objective defines the objective-space machinery of the Progressive
// Frontier approach (paper §III): points in a k-dimensional objective space,
// Pareto dominance, Utopia/Nadir points, hyperrectangles, the middle-point
// subdivision of Definition III.3, and the uncertain-space volume measure
// used to rank hyperrectangles and report frontier coverage.
//
// All objectives are minimized. Objectives that favor larger values (e.g.
// throughput) are negated by the caller before entering this package, as in
// Problem III.1 of the paper.
package objective

import (
	"fmt"
	"math"
	"sort"
)

// Point is a point in the k-dimensional objective space.
type Point []float64

// Clone returns a copy of p.
func (p Point) Clone() Point {
	out := make(Point, len(p))
	copy(out, p)
	return out
}

// Dominates reports whether p Pareto-dominates q: p is no worse in every
// objective and strictly better in at least one (Definition III.1).
func (p Point) Dominates(q Point) bool {
	if len(p) != len(q) {
		panic(fmt.Sprintf("objective: dimension mismatch %d != %d", len(p), len(q)))
	}
	strict := false
	for i := range p {
		if p[i] > q[i] {
			return false
		}
		if p[i] < q[i] {
			strict = true
		}
	}
	return strict
}

// WeaklyDominates reports whether p is no worse than q in every objective.
func (p Point) WeaklyDominates(q Point) bool {
	if len(p) != len(q) {
		panic(fmt.Sprintf("objective: dimension mismatch %d != %d", len(p), len(q)))
	}
	for i := range p {
		if p[i] > q[i] {
			return false
		}
	}
	return true
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	s := 0.0
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Solution couples a Pareto point in objective space with the configuration
// (decision vector) that achieves it — the paper's "plan".
type Solution struct {
	F Point     // objective values (all minimized)
	X []float64 // configuration in the solver's decision space
}

// Clone deep-copies the solution.
func (s Solution) Clone() Solution {
	x := make([]float64, len(s.X))
	copy(x, s.X)
	return Solution{F: s.F.Clone(), X: x}
}

// Filter removes every solution dominated by another solution in the set, and
// deduplicates identical objective vectors (the Filter step of Algorithm 1).
// The result is sorted lexicographically by objective values for determinism.
func Filter(sols []Solution) []Solution {
	out := make([]Solution, 0, len(sols))
	for i, s := range sols {
		dominated := false
		for j, t := range sols {
			if i == j {
				continue
			}
			if t.F.Dominates(s.F) {
				dominated = true
				break
			}
			// Deduplicate equal points: keep the first occurrence.
			if j < i && pointsEqual(t.F, s.F) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, s)
		}
	}
	SortSolutions(out)
	return out
}

func pointsEqual(a, b Point) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// SortSolutions orders solutions lexicographically by objective values.
func SortSolutions(sols []Solution) {
	sort.Slice(sols, func(i, j int) bool {
		a, b := sols[i].F, sols[j].F
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// Rect is a hyperrectangle in objective space, identified by its local Utopia
// (componentwise lower) and Nadir (componentwise upper) corners.
type Rect struct {
	Utopia Point
	Nadir  Point
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Utopia) }

// Volume returns the k-dimensional volume of the rectangle.
func (r Rect) Volume() float64 {
	v := 1.0
	for i := range r.Utopia {
		v *= r.Nadir[i] - r.Utopia[i]
	}
	return v
}

// Middle returns the midpoint (Utopia+Nadir)/2, the constraint upper corner
// of the Middle Point Probe (Definition III.3).
func (r Rect) Middle() Point {
	m := make(Point, r.Dim())
	for i := range m {
		m[i] = (r.Utopia[i] + r.Nadir[i]) / 2
	}
	return m
}

// Contains reports whether p lies inside the rectangle (inclusive).
func (r Rect) Contains(p Point) bool {
	for i := range p {
		if p[i] < r.Utopia[i] || p[i] > r.Nadir[i] {
			return false
		}
	}
	return true
}

// Subdivide splits the rectangle by the axis-aligned planes through the
// probed Pareto point f into up to 2^k - 2 sub-hyperrectangles, discarding
// the all-lower cell [Utopia, f] (provably empty of Pareto points: anything
// there would dominate f) and the all-upper cell [f, Nadir] (every point
// there is dominated by f). Degenerate zero-volume cells are dropped.
//
// This is generateSubRectangles of Algorithm 1, generalized to k dimensions.
func (r Rect) Subdivide(f Point) []Rect {
	k := r.Dim()
	if len(f) != k {
		panic(fmt.Sprintf("objective: Subdivide dimension mismatch %d != %d", len(f), k))
	}
	// Clamp f into the rectangle: an approximate solver may return a point
	// marginally outside due to rounding.
	fc := f.Clone()
	for i := range fc {
		if fc[i] < r.Utopia[i] {
			fc[i] = r.Utopia[i]
		}
		if fc[i] > r.Nadir[i] {
			fc[i] = r.Nadir[i]
		}
	}
	total := 1 << k
	out := make([]Rect, 0, total-2)
	for mask := 0; mask < total; mask++ {
		if mask == 0 || mask == total-1 {
			continue // all-lower (empty) and all-upper (dominated) cells
		}
		u := make(Point, k)
		n := make(Point, k)
		degenerate := false
		for i := 0; i < k; i++ {
			if mask&(1<<i) == 0 {
				u[i], n[i] = r.Utopia[i], fc[i]
			} else {
				u[i], n[i] = fc[i], r.Nadir[i]
			}
			if n[i] <= u[i] {
				degenerate = true
				break
			}
		}
		if degenerate {
			continue
		}
		out = append(out, Rect{Utopia: u, Nadir: n})
	}
	return out
}

// GridCells partitions the rectangle into an l^k uniform grid, as used by the
// parallel PF-AP algorithm (paper §IV-C). Cells are emitted in row-major
// order for determinism.
func (r Rect) GridCells(l int) []Rect {
	if l < 1 {
		panic("objective: grid degree must be >= 1")
	}
	k := r.Dim()
	total := 1
	for i := 0; i < k; i++ {
		total *= l
	}
	cells := make([]Rect, 0, total)
	idx := make([]int, k)
	for c := 0; c < total; c++ {
		u := make(Point, k)
		n := make(Point, k)
		for i := 0; i < k; i++ {
			span := (r.Nadir[i] - r.Utopia[i]) / float64(l)
			u[i] = r.Utopia[i] + float64(idx[i])*span
			n[i] = u[i] + span
		}
		cells = append(cells, Rect{Utopia: u, Nadir: n})
		for i := 0; i < k; i++ {
			idx[i]++
			if idx[i] < l {
				break
			}
			idx[i] = 0
		}
	}
	return cells
}

// Bounds computes the global Utopia and Nadir points from the k reference
// points (per-objective minimizers), per Definition III.2: the Utopia point
// takes the componentwise minimum and the Nadir the componentwise maximum.
func Bounds(refs []Point) (utopia, nadir Point) {
	if len(refs) == 0 {
		return nil, nil
	}
	k := len(refs[0])
	utopia = make(Point, k)
	nadir = make(Point, k)
	for j := 0; j < k; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range refs {
			if r[j] < lo {
				lo = r[j]
			}
			if r[j] > hi {
				hi = r[j]
			}
		}
		utopia[j], nadir[j] = lo, hi
	}
	return utopia, nadir
}

// Normalize maps p into [0,1]^k relative to the [utopia, nadir] box; values
// outside the box map outside [0,1]. Degenerate axes (utopia == nadir) map
// to 0.
func Normalize(p, utopia, nadir Point) Point {
	return NormalizeInto(make(Point, len(p)), p, utopia, nadir)
}

// NormalizeInto is Normalize writing into dst (len(dst) >= len(p)), which
// it returns resliced to len(p).
func NormalizeInto(dst, p, utopia, nadir Point) Point {
	dst = dst[:len(p)]
	for i := range p {
		span := nadir[i] - utopia[i]
		if span <= 0 {
			dst[i] = 0
			continue
		}
		dst[i] = (p[i] - utopia[i]) / span
	}
	return dst
}
