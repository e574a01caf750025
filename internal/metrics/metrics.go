// Package metrics implements the evaluation measures of the paper's
// performance study (§VI): the uncertain-space percentage that Figures 4, 5
// and 8 track over time, the dominated-hypervolume indicator, and the
// frontier-consistency measure that exposes the Evo inconsistency of
// Fig. 4(e).
//
// All measures operate on minimization objective spaces bounded by a global
// [Utopia, Nadir] box. Given a set of (assumed Pareto-optimal) points P, the
// box splits into three parts: the region dominated by some p ∈ P (certainly
// not on the frontier), the region dominating some p ∈ P (certainly empty —
// otherwise p would not be Pareto optimal), and the rest, which remains
// uncertain. The uncertain fraction is the volume of that rest divided by
// the box volume.
package metrics

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"repro/internal/objective"
)

// BoxValid reports whether [utopia, nadir] is a usable reference box: equal
// non-zero dimensionality, all corners finite, and nadir no smaller than
// utopia on every axis. Zero-span axes (utopia[i] == nadir[i]) are allowed —
// Normalize maps them to 0. The quality measures return the NaN sentinel on
// an invalid box instead of silently producing garbage volumes.
func BoxValid(utopia, nadir objective.Point) bool {
	if len(utopia) == 0 || len(utopia) != len(nadir) {
		return false
	}
	for i := range utopia {
		if math.IsNaN(utopia[i]) || math.IsInf(utopia[i], 0) ||
			math.IsNaN(nadir[i]) || math.IsInf(nadir[i], 0) ||
			nadir[i] < utopia[i] {
			return false
		}
	}
	return true
}

// UncertainFraction returns the fraction of the [utopia, nadir] box left
// uncertain by the frontier points. 2D is computed exactly by a sweep;
// higher dimensions use a deterministic Monte Carlo estimate (30k samples,
// fixed seed), which is accurate to ~0.6%. A degenerate box (inverted or
// non-finite corners, see BoxValid) yields NaN.
func UncertainFraction(points []objective.Point, utopia, nadir objective.Point) float64 {
	if !BoxValid(utopia, nadir) {
		return math.NaN()
	}
	k := len(utopia)
	inside := clipToBox(points, utopia, nadir)
	if len(inside) == 0 {
		return 1
	}
	if k == 2 {
		return uncertain2D(inside, utopia, nadir)
	}
	return uncertainMC(inside, utopia, nadir, 30_000)
}

// clipToBox normalizes the points into [0,1]^k relative to the box and
// clamps them onto it; points are deduplicated, and points with the wrong
// dimensionality or non-finite components are dropped — callers are not
// required to pre-clean the frontier.
//
// Two points are duplicates when every clamped coordinate prints alike at 9
// decimals; a point is dropped when an earlier one duplicates it, and the
// survivors keep input order. Coordinates that print alike lie within 1e-9
// of each other, so the points are sorted by the first axis, each is
// compared only with its successors inside nearWindow, and only pairs near
// on every axis are printed.
func clipToBox(points []objective.Point, utopia, nadir objective.Point) []objective.Point {
	k := len(utopia)
	vals := make([]float64, len(points)*k)
	out := make([]objective.Point, 0, len(points))
	for _, p := range points {
		if !pointUsable(p, k) {
			continue
		}
		n := len(out) * k
		q := objective.NormalizeInto(vals[n:n+k:n+k], p, utopia, nadir)
		for i := range q {
			if q[i] < 0 {
				q[i] = 0
			}
			if q[i] > 1 {
				q[i] = 1
			}
		}
		out = append(out, q)
	}
	if len(out) < 2 {
		return out
	}
	if k == 0 {
		return out[:1] // zero-dimensional points are all the same point
	}
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	// cmp.Compare sorts NaN (from a NaN box corner) first, so equal keys
	// stay adjacent within the window.
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(out[a][0], out[b][0]) })
	drop := make([]bool, len(out))
	var buf [2][24]byte
	for n, a := range order {
		if drop[a] {
			continue
		}
		for _, b := range order[n+1:] {
			if !near(out[a][0], out[b][0]) {
				break
			}
			if drop[b] || !sameKey(out[a], out[b], &buf) {
				continue
			}
			if a > b {
				drop[a] = true
				break
			}
			drop[b] = true
		}
	}
	kept := out[:0]
	for i, q := range out {
		if !drop[i] {
			kept = append(kept, q)
		}
	}
	return kept
}

// nearWindow bounds the distance between two coordinates that can print
// alike at 9 decimals. Those lie within 1e-9, so any bound from 1e-9 up is
// exact; the margin absorbs the subtraction's rounding.
const nearWindow = 1e-8

// near reports whether x and y are within nearWindow; NaNs, which all
// print "NaN", are near each other.
func near(x, y float64) bool {
	return math.Abs(x-y) <= nearWindow || (x != x && y != y)
}

// sameKey reports whether p and q print alike, coordinate by coordinate,
// with strconv's 'f' format at 9 decimals — the dedup key. Pairs not near on
// every axis are rejected before any coordinate is printed.
func sameKey(p, q objective.Point, buf *[2][24]byte) bool {
	for i := range p {
		if !near(p[i], q[i]) {
			return false
		}
	}
	for i := range p {
		if p[i] == q[i] && math.Signbit(p[i]) == math.Signbit(q[i]) {
			continue // the same value; -0 prints as "-0.000000000"
		}
		x := strconv.AppendFloat(buf[0][:0], p[i], 'f', 9, 64)
		y := strconv.AppendFloat(buf[1][:0], q[i], 'f', 9, 64)
		if string(x) != string(y) {
			return false
		}
	}
	return true
}

// pointUsable reports whether p has the box's dimensionality and only finite
// components.
func pointUsable(p objective.Point, k int) bool {
	if len(p) != k {
		return false
	}
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// uncertain2D sweeps the frontier left to right. With points sorted by the
// first objective, the dominated region is a staircase above/right of the
// frontier and the empty region a staircase below/left; the rest is a set of
// rectangles between consecutive frontier steps.
func uncertain2D(pts []objective.Point, _, _ objective.Point) float64 {
	sort.Slice(pts, func(i, j int) bool {
		if pts[i][0] != pts[j][0] {
			return pts[i][0] < pts[j][0]
		}
		return pts[i][1] < pts[j][1]
	})
	// Keep the non-dominated staircase only (y strictly decreasing).
	var stair []objective.Point
	bestY := math.Inf(1)
	for _, p := range pts {
		if p[1] < bestY {
			stair = append(stair, p)
			bestY = p[1]
		}
	}
	// Dominated volume: union of [p, (1,1)] boxes.
	dom := 0.0
	prevX := 1.0
	for i := len(stair) - 1; i >= 0; i-- {
		p := stair[i]
		dom += (prevX - p[0]) * (1 - p[1])
		prevX = p[0]
	}
	// Empty volume: union of [(0,0), p] boxes. With y strictly decreasing
	// along the staircase, the union decomposes into horizontal slabs
	// x ∈ [0, x_i], y ∈ [y_{i+1}, y_i].
	empty := 0.0
	for i, p := range stair {
		nextY := 0.0
		if i+1 < len(stair) {
			nextY = stair[i+1][1]
		}
		empty += p[0] * (p[1] - nextY)
	}
	u := 1 - dom - empty
	if u < 0 {
		u = 0
	}
	return u
}

// uncertainMC estimates the uncertain fraction by sampling the unit box.
func uncertainMC(pts []objective.Point, _, _ objective.Point, samples int) float64 {
	rng := rand.New(rand.NewSource(20210415))
	k := len(pts[0])
	x := make(objective.Point, k)
	uncertain := 0
	for s := 0; s < samples; s++ {
		for d := 0; d < k; d++ {
			x[d] = rng.Float64()
		}
		classified := false
		for _, p := range pts {
			if p.WeaklyDominates(x) || x.WeaklyDominates(p) {
				classified = true
				break
			}
		}
		if !classified {
			uncertain++
		}
	}
	return float64(uncertain) / float64(samples)
}

// Hypervolume returns the fraction of the [utopia, nadir] box dominated by
// the frontier — the standard hypervolume indicator with the Nadir point as
// reference (higher is better). 2D is exact; higher dimensions use the same
// deterministic Monte Carlo estimate as UncertainFraction. Out-of-box points
// are clamped onto the box and non-finite or wrong-dimension points dropped;
// a degenerate box (see BoxValid) yields NaN.
func Hypervolume(points []objective.Point, utopia, nadir objective.Point) float64 {
	if !BoxValid(utopia, nadir) {
		return math.NaN()
	}
	inside := clipToBox(points, utopia, nadir)
	if len(inside) == 0 {
		return 0
	}
	if len(utopia) == 2 {
		sort.Slice(inside, func(i, j int) bool { return inside[i][0] < inside[j][0] })
		dom := 0.0
		bestY := math.Inf(1)
		prevX := 1.0
		var stair []objective.Point
		for _, p := range inside {
			if p[1] < bestY {
				stair = append(stair, p)
				bestY = p[1]
			}
		}
		for i := len(stair) - 1; i >= 0; i-- {
			dom += (prevX - stair[i][0]) * (1 - stair[i][1])
			prevX = stair[i][0]
		}
		return dom
	}
	rng := rand.New(rand.NewSource(774411))
	k := len(utopia)
	x := make(objective.Point, k)
	hit := 0
	const samples = 30_000
	for s := 0; s < samples; s++ {
		for d := 0; d < k; d++ {
			x[d] = rng.Float64()
		}
		for _, p := range inside {
			if p.WeaklyDominates(x) {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(samples)
}

// Consistency quantifies how well frontier `next` preserves the information
// of an earlier frontier `prev` (both from the same algorithm at increasing
// budgets): for every point of prev, the distance to the closest
// weakly-dominating-or-equal point of next is measured in the normalized
// box, and the maximum over prev is returned. A consistent, incremental
// algorithm like PF yields 0 (every earlier point is retained or improved);
// randomized methods like Evo yield large values when later runs contradict
// earlier recommendations (Fig. 4(e)). A degenerate box (see BoxValid)
// yields NaN; unusable points (wrong dimension, non-finite) are dropped
// before comparison.
func Consistency(prev, next []objective.Point, utopia, nadir objective.Point) float64 {
	if !BoxValid(utopia, nadir) {
		return math.NaN()
	}
	np := clipToBox(prev, utopia, nadir)
	nn := clipToBox(next, utopia, nadir)
	if len(np) == 0 {
		return 0
	}
	if len(nn) == 0 {
		return math.Inf(1)
	}
	worst := 0.0
	for _, p := range np {
		best := math.Inf(1)
		for _, q := range nn {
			if q.WeaklyDominates(p) {
				best = 0
				break
			}
			if d := q.Dist(p); d < best {
				best = d
			}
		}
		if best > worst {
			worst = best
		}
	}
	return worst
}

// Coverage counts the points of the frontier that fall inside the box and
// are mutually non-dominated — the "number of Pareto points produced"
// reported for WS/NC in Fig. 4(b). A degenerate box (see BoxValid) yields 0:
// no point can be meaningfully placed in it.
func Coverage(points []objective.Point, utopia, nadir objective.Point) int {
	if !BoxValid(utopia, nadir) {
		return 0
	}
	inside := clipToBox(points, utopia, nadir)
	n := 0
	for i, p := range inside {
		dominated := false
		for j, q := range inside {
			if i != j && q.Dominates(p) {
				dominated = true
				break
			}
		}
		if !dominated {
			n++
		}
	}
	return n
}
