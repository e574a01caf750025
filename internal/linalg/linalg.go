// Package linalg provides the small dense linear-algebra kernel used by the
// learned performance models (Gaussian processes, LASSO feature selection,
// DNNs).
//
// It is deliberately minimal: dense row-major matrices, Cholesky
// factorization, and triangular solves are all the Gaussian-process posterior
// and the coordinate-descent LASSO need, and the GEMM kernels (gemm.go)
// carry the DNN's training, inference and MC-dropout passes. Everything is
// float64 and allocation-conscious so GP retraining inside benchmarks stays
// cheap.
//
// GEMM determinism contract: GemmNT and GemmNN turn every element C[i,j]
// into a running sum that starts from the value already stored in C and adds
// its products in strictly ascending k order, skipping each product whose A
// element is ±0. The result is bit-identical to the ascending-k reference
// that adds every product whenever no element of C is −0 and every element
// of B is finite. The reason: a skipped product is then ±0, and x + (±0) = x
// unless x is −0; a sum that does not start at −0 never becomes −0 (in
// round-to-nearest only −0 + −0 is −0), so each skipped term is exactly the
// identity. Outside the condition the results differ: the reference's
// −0 + (+0) gives +0 where the kernels leave −0, and 0·∞ gives NaN where the
// kernels skip it. The DNN callers meet the condition by construction. C
// starts from a bias or from a buffer cleared to +0; a bias starts at +0,
// and Adam's b − u gives −0 only when b already is −0; weights and
// activations are finite.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// NewMatrixFrom builds an r×c matrix from data (which is used directly, not
// copied). It panics if len(data) != r*c.
func NewMatrixFrom(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("linalg: data length %d != %d*%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// AddDiag adds v to every diagonal element of m (in place); used for jitter
// and noise variance in GP kernels.
func (m *Matrix) AddDiag(v float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += v
	}
}

// Cholesky computes the lower-triangular L with m = L·Lᵀ. m must be
// symmetric positive definite; otherwise ErrNotPositiveDefinite is returned.
// Only the lower triangle of m is read.
func Cholesky(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: Cholesky requires a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	l := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(l.Row(i)[:i+1], m.Row(i)[:i+1])
	}
	if err := CholeskyInPlace(l); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyInPlace overwrites the lower triangle of the square matrix m with
// the lower-triangular L of m = L·Lᵀ, with the same bits as Cholesky. It
// reads only that triangle and leaves the upper one as it was. On
// ErrNotPositiveDefinite m is left partly factored.
//
// Each element subtracts its products in ascending k order, as the textbook
// row-by-row loop does. Rows are factored four at a time: their elements
// left of the block share each loaded row of L and carry four independent
// sums, and the block's own triangle follows element by element.
func CholeskyInPlace(m *Matrix) error {
	if m.Rows != m.Cols {
		return fmt.Errorf("linalg: Cholesky requires a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	for i0 := 0; i0 < n; i0 += 4 {
		j0 := 0 // the first column the element-by-element pass factors
		if i0+4 <= n {
			r0, r1, r2, r3 := m.Row(i0)[:i0], m.Row(i0 + 1)[:i0], m.Row(i0 + 2)[:i0], m.Row(i0 + 3)[:i0]
			for j := 0; j < i0; j++ {
				lj := m.Row(j)[:j+1]
				a0, a1, a2, a3 := r0[:j], r1[:j], r2[:j], r3[:j]
				s0, s1, s2, s3 := r0[j], r1[j], r2[j], r3[j]
				for k, v := range lj[:j] {
					s0 -= a0[k] * v
					s1 -= a1[k] * v
					s2 -= a2[k] * v
					s3 -= a3[k] * v
				}
				d := lj[j]
				r0[j], r1[j], r2[j], r3[j] = s0/d, s1/d, s2/d, s3/d
			}
			j0 = i0
		}
		for i := i0; i < min(i0+4, n); i++ {
			li := m.Row(i)
			for j := j0; j <= i; j++ {
				sum := li[j]
				lj := m.Row(j)
				for k := 0; k < j; k++ {
					sum -= li[k] * lj[k]
				}
				if i == j {
					if sum <= 0 || math.IsNaN(sum) {
						return ErrNotPositiveDefinite
					}
					li[j] = math.Sqrt(sum)
				} else {
					li[j] = sum / lj[j]
				}
			}
		}
	}
	return nil
}

// SolveLower solves L·y = b for lower-triangular L by forward substitution.
func SolveLower(l *Matrix, b []float64) []float64 {
	n := l.Rows
	if len(b) != n {
		panic("linalg: SolveLower dimension mismatch")
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	return y
}

// SolveUpperT solves Lᵀ·x = y for lower-triangular L (i.e. an upper
// triangular solve against the transpose) by backward substitution.
func SolveUpperT(l *Matrix, y []float64) []float64 {
	n := l.Rows
	if len(y) != n {
		panic("linalg: SolveUpperT dimension mismatch")
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// CholSolve solves m·x = b given the Cholesky factor L of m.
func CholSolve(l *Matrix, b []float64) []float64 {
	return SolveUpperT(l, SolveLower(l, b))
}

// LogDetFromChol returns log|m| given the Cholesky factor L of m.
func LogDetFromChol(l *Matrix) float64 {
	s := 0.0
	for i := 0; i < l.Rows; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}

// Dot returns the inner product of a and b. It panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Scale multiplies every element of v by alpha, in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// StdDev returns the population standard deviation of v.
func StdDev(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	s := 0.0
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(v)))
}

// Clamp limits x into [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
