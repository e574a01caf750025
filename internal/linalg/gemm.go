package linalg

import (
	"fmt"
	"unsafe"
)

// Blocked GEMM kernels — the matrix hot path under the batched DNN passes
// (internal/model/dnn: mini-batch training, MC-dropout sampling, and the
// forward/backward pass) and everything built on them (model training in the
// model server, batched MOGD multi-start, population evaluation in the moo
// baselines).
//
// Both kernels accumulate into C:
//
//	GemmNN:  C += A·B   (the batched backward pass: deltas times weights)
//	GemmNT:  C += A·Bᵀ  (the batched forward pass: inputs times weightsᵀ)
//
// Determinism contract: every output element C[i,j] is a running sum that
// starts from the value already stored in C and adds its products in strictly
// ascending k order — exactly the order the scalar loops in model/dnn use.
// Register tiling therefore draws its instruction-level parallelism from
// *independent* output elements (2×4 / 4×2 tiles of accumulator chains), never
// from splitting one element's sum, so the batched pass stays bit-identical
// to the scalar pass. Zero operands are not skipped (a skipped ±0 term can
// flip the sign of a zero sum); equality of results is float equality, under
// which -0 == +0.
//
// The kernels panic on dimension mismatches and on aliasing: C must not share
// memory with A or B (an aliased accumulator would read half-updated values).

// overlap reports whether the two slices share any backing memory.
func overlap(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa := uintptr(unsafe.Pointer(&a[0]))
	pb := uintptr(unsafe.Pointer(&b[0]))
	ea := pa + uintptr(len(a))*8
	eb := pb + uintptr(len(b))*8
	return pa < eb && pb < ea
}

func checkGemm(name string, am, an, bm, bn, cm, cn int, a, b, c *Matrix) {
	if an != bm {
		panic(fmt.Sprintf("linalg: %s inner dimension mismatch %d != %d", name, an, bm))
	}
	if cm != am || cn != bn {
		panic(fmt.Sprintf("linalg: %s output is %dx%d, want %dx%d", name, cm, cn, am, bn))
	}
	if overlap(c.Data, a.Data) || overlap(c.Data, b.Data) {
		panic(fmt.Sprintf("linalg: %s output aliases an input", name))
	}
}

// GemmNT computes C += A·Bᵀ for row-major A (m×K), B (n×K), C (m×n). This is
// the layout of a dense-layer forward pass: activations (batch×in) times a
// weight matrix stored out×in. Each C[i,j] accumulates dot(A row i, B row j)
// in ascending k order on top of C's prior value (the bias, in the DNN case).
func GemmNT(a, b, c *Matrix) {
	m, kk, n := a.Rows, a.Cols, b.Rows
	checkGemm("GemmNT", m, kk, b.Cols, n, c.Rows, c.Cols, a, b, c)
	if kk == 0 {
		return
	}
	i := 0
	// 4×2 register tile: eight independent accumulator chains per k step.
	for ; i+4 <= m; i += 4 {
		a0 := a.Row(i)[:kk]
		a1 := a.Row(i + 1)[:kk]
		a2 := a.Row(i + 2)[:kk]
		a3 := a.Row(i + 3)[:kk]
		c0, c1, c2, c3 := c.Row(i), c.Row(i+1), c.Row(i+2), c.Row(i+3)
		j := 0
		for ; j+2 <= n; j += 2 {
			b0 := b.Row(j)[:kk]
			b1 := b.Row(j + 1)[:kk]
			s00, s01 := c0[j], c0[j+1]
			s10, s11 := c1[j], c1[j+1]
			s20, s21 := c2[j], c2[j+1]
			s30, s31 := c3[j], c3[j+1]
			for k := 0; k < kk; k++ {
				av0, av1, av2, av3 := a0[k], a1[k], a2[k], a3[k]
				bv0, bv1 := b0[k], b1[k]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s10 += av1 * bv0
				s11 += av1 * bv1
				s20 += av2 * bv0
				s21 += av2 * bv1
				s30 += av3 * bv0
				s31 += av3 * bv1
			}
			c0[j], c0[j+1] = s00, s01
			c1[j], c1[j+1] = s10, s11
			c2[j], c2[j+1] = s20, s21
			c3[j], c3[j+1] = s30, s31
		}
		for ; j < n; j++ {
			brow := b.Row(j)[:kk]
			s0, s1, s2, s3 := c0[j], c1[j], c2[j], c3[j]
			for k := 0; k < kk; k++ {
				bv := brow[k]
				s0 += a0[k] * bv
				s1 += a1[k] * bv
				s2 += a2[k] * bv
				s3 += a3[k] * bv
			}
			c0[j], c1[j], c2[j], c3[j] = s0, s1, s2, s3
		}
	}
	for ; i < m; i++ {
		arow := a.Row(i)[:kk]
		crow := c.Row(i)
		j := 0
		for ; j+2 <= n; j += 2 {
			b0 := b.Row(j)[:kk]
			b1 := b.Row(j + 1)[:kk]
			s0, s1 := crow[j], crow[j+1]
			for k := 0; k < kk; k++ {
				av := arow[k]
				s0 += av * b0[k]
				s1 += av * b1[k]
			}
			crow[j], crow[j+1] = s0, s1
		}
		for ; j < n; j++ {
			brow := b.Row(j)[:kk]
			s := crow[j]
			for k := 0; k < kk; k++ {
				s += arow[k] * brow[k]
			}
			crow[j] = s
		}
	}
}

// GemmNN computes C += A·B for row-major A (m×K), B (K×n), C (m×n). This is
// the layout of backpropagation through a dense layer: output deltas
// (batch×out) times the weight matrix (out×in). The i-k-j loop order streams
// B rows while keeping each C[i,j]'s accumulation in ascending k order.
func GemmNN(a, b, c *Matrix) {
	m, kk, n := a.Rows, a.Cols, b.Rows
	checkGemm("GemmNN", m, kk, kk, b.Cols, c.Rows, c.Cols, a, b, c)
	_ = n
	nn := b.Cols
	i := 0
	// Two A rows per pass: each B row load feeds two accumulator rows.
	for ; i+2 <= m; i += 2 {
		a0 := a.Row(i)[:kk]
		a1 := a.Row(i + 1)[:kk]
		c0 := c.Row(i)[:nn]
		c1 := c.Row(i + 1)[:nn]
		for k := 0; k < kk; k++ {
			av0, av1 := a0[k], a1[k]
			brow := b.Row(k)[:nn]
			for j, bv := range brow {
				c0[j] += av0 * bv
				c1[j] += av1 * bv
			}
		}
	}
	for ; i < m; i++ {
		arow := a.Row(i)[:kk]
		crow := c.Row(i)[:nn]
		for k := 0; k < kk; k++ {
			av := arow[k]
			brow := b.Row(k)[:nn]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}
