package main

import (
	"math"
	"sort"
)

// Percentile returns the q-th quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks of the sorted sample, and the
// sample count it rests on. An empty sample yields NaN.
func Percentile(xs []float64, q float64) (float64, int) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1], n
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), n
}

// Median is Percentile(xs, 0.5) without the count.
func Median(xs []float64) float64 {
	v, _ := Percentile(xs, 0.5)
	return v
}

// Mean returns the arithmetic mean of xs (NaN when empty).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Beyond returns how many samples of an n-sample quantile lie strictly
// above rank q — the guide's rule is to report the highest percentile with
// at least ten samples beyond it.
func Beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}
