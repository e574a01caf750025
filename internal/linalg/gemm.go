package linalg

import (
	"fmt"
	"unsafe"
)

// GEMM kernels — the matrix hot path under the batched DNN passes
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
// Both share one front end: each A row's nonzero entries, index and value,
// are gathered once, at most gatherChunk columns at a time, into a list on
// the stack. Each kernel then runs 1×8 register tiles of C (1×4 and 1×1
// tails) over that list in ascending k, so a ±0 element of A costs nothing.
// In a DNN pass such an element is a ReLU output that did not fire, a
// dropped-out unit or a masked delta: about 40% of the hidden-layer values
// in MOGD's passes and in training. Instruction-level parallelism comes from
// independent output elements, never from splitting one element's sum. The
// package comment states the determinism contract this keeps.
//
// The two shapes of a DNN's one-unit output layer are too narrow for a tile
// and take a direct loop that skips the same ±0 elements: GemmNT with one
// output column (the forward pass into the output) sums each row's nonzero
// products inline, and GemmNN with one inner element (the backward pass out
// of it) adds one multiple of B's row per nonzero A element.
//
// The kernels panic on dimension mismatches and on aliasing: C must not share
// memory with A or B (an aliased accumulator would read half-updated values).

// gatherChunk bounds the A columns one gather covers, so the nonzero list
// of a row chunk fits in a fixed array on the kernel's stack.
const gatherChunk = 128

// nonzeros is one A row chunk's gathered nonzero entries: column offsets
// within the chunk and their values, in ascending column order.
type nonzeros struct {
	k [gatherChunk]int32
	v [gatherChunk]float64
}

// gather fills z with the nonzero entries among the first gatherChunk
// elements of row and returns them as two equal-length slices. The store is
// unconditional and only the count depends on the element, so a zero costs
// no branch. The count never exceeds the column, so masking it changes no
// index; it only spares the bounds checks.
func (z *nonzeros) gather(row []float64) ([]int32, []float64) {
	row = row[:min(len(row), gatherChunk)]
	n := 0
	for k, v := range row {
		z.k[n&(gatherChunk-1)] = int32(k)
		z.v[n&(gatherChunk-1)] = v
		if v != 0 {
			n++
		}
	}
	return z.k[:n], z.v[:n]
}

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
// weight matrix stored out×in. Each C[i,j] accumulates A row i's nonzero
// products with B row j in ascending k order on top of C's prior value (the
// bias, in the DNN case).
func GemmNT(a, b, c *Matrix) {
	m, kk, n := a.Rows, a.Cols, b.Rows
	checkGemm("GemmNT", m, kk, b.Cols, n, c.Rows, c.Cols, a, b, c)
	if n == 1 {
		// One output column (a DNN's output layer): one sum per row, too
		// short a tile for the gather to pay; skip the ±0 A elements inline.
		brow := b.Data[:kk]
		for i := 0; i < m; i++ {
			s := c.Data[i]
			for k, v := range a.Row(i)[:kk] {
				if v != 0 {
					s += v * brow[k]
				}
			}
			c.Data[i] = s
		}
		return
	}
	var z nonzeros
	for i := 0; i < m; i++ {
		arow := a.Row(i)
		crow := c.Row(i)[:n]
		for k0 := 0; k0 < kk; k0 += gatherChunk {
			k1 := min(k0+gatherChunk, kk)
			ks, vs := z.gather(arow[k0:k1])
			if len(ks) == 0 {
				continue
			}
			vs = vs[:len(ks)]
			j := 0
			// 1×8 register tile: eight B rows, eight independent sums. The
			// rows are read at stride K through two slices of four rows
			// each; with one bounds check per load, every product is added
			// as soon as it is loaded, which keeps the tile's base pointers
			// and accumulators in registers.
			for ; j+8 <= n; j += 8 {
				lo := b.Data[j*kk+k0 : (j+3)*kk+k1]
				hi := b.Data[(j+4)*kk+k0 : (j+7)*kk+k1]
				cj := crow[j : j+8]
				s0, s1, s2, s3 := cj[0], cj[1], cj[2], cj[3]
				s4, s5, s6, s7 := cj[4], cj[5], cj[6], cj[7]
				for p, k := range ks {
					av, k := vs[p], int(k)
					s0 += av * lo[k]
					s4 += av * hi[k]
					s1 += av * lo[k+kk]
					s5 += av * hi[k+kk]
					s2 += av * lo[k+2*kk]
					s6 += av * hi[k+2*kk]
					s3 += av * lo[k+3*kk]
					s7 += av * hi[k+3*kk]
				}
				cj[0], cj[1], cj[2], cj[3] = s0, s1, s2, s3
				cj[4], cj[5], cj[6], cj[7] = s4, s5, s6, s7
			}
			for ; j+4 <= n; j += 4 {
				bt := b.Data[j*kk+k0 : (j+3)*kk+k1]
				cj := crow[j : j+4]
				s0, s1, s2, s3 := cj[0], cj[1], cj[2], cj[3]
				for p, k := range ks {
					av, k := vs[p], int(k)
					s0 += av * bt[k]
					s1 += av * bt[k+kk]
					s2 += av * bt[k+2*kk]
					s3 += av * bt[k+3*kk]
				}
				cj[0], cj[1], cj[2], cj[3] = s0, s1, s2, s3
			}
			for ; j < n; j++ {
				brow := b.Row(j)[k0:k1]
				s := crow[j]
				for p, k := range ks {
					s += vs[p] * brow[k]
				}
				crow[j] = s
			}
		}
	}
}

// GemmNN computes C += A·B for row-major A (m×K), B (K×n), C (m×n). This is
// the layout of backpropagation through a dense layer: output deltas
// (batch×out) times the weight matrix (out×in), and of the weight gradient:
// the transposed deltas (out×batch) times the layer inputs (batch×in). Each
// C[i,j] accumulates A row i's nonzero products with B column j in ascending
// k order on top of C's prior value.
func GemmNN(a, b, c *Matrix) {
	m, kk, n := a.Rows, a.Cols, b.Cols
	checkGemm("GemmNN", m, kk, b.Rows, n, c.Rows, c.Cols, a, b, c)
	if kk == 1 {
		// One inner element (backprop out of a DNN's one output): each C
		// row adds one multiple of B's one row, or nothing for a ±0 A.
		brow := b.Data[:n]
		for i := 0; i < m; i++ {
			if v := a.Data[i]; v != 0 {
				crow := c.Row(i)[:n]
				for j, bv := range brow {
					crow[j] += v * bv
				}
			}
		}
		return
	}
	var z nonzeros
	for i := 0; i < m; i++ {
		arow := a.Row(i)
		crow := c.Row(i)[:n]
		for k0 := 0; k0 < kk; k0 += gatherChunk {
			ks, vs := z.gather(arow[k0:])
			if len(ks) == 0 {
				continue
			}
			vs = vs[:len(ks)]
			bk := b.Data[k0*n:]
			j := 0
			// 1×8 register tile: eight adjacent columns of each B row, read
			// four at a time through two slices, as in GemmNT.
			for ; j+8 <= n; j += 8 {
				lo, hi := bk[j:], bk[j+4:]
				cj := crow[j : j+8]
				s0, s1, s2, s3 := cj[0], cj[1], cj[2], cj[3]
				s4, s5, s6, s7 := cj[4], cj[5], cj[6], cj[7]
				for p, k := range ks {
					av, o := vs[p], int(k)*n
					s0 += av * lo[o]
					s4 += av * hi[o]
					s1 += av * lo[o+1]
					s5 += av * hi[o+1]
					s2 += av * lo[o+2]
					s6 += av * hi[o+2]
					s3 += av * lo[o+3]
					s7 += av * hi[o+3]
				}
				cj[0], cj[1], cj[2], cj[3] = s0, s1, s2, s3
				cj[4], cj[5], cj[6], cj[7] = s4, s5, s6, s7
			}
			for ; j+4 <= n; j += 4 {
				bt := bk[j:]
				cj := crow[j : j+4]
				s0, s1, s2, s3 := cj[0], cj[1], cj[2], cj[3]
				for p, k := range ks {
					av, o := vs[p], int(k)*n
					s0 += av * bt[o]
					s1 += av * bt[o+1]
					s2 += av * bt[o+2]
					s3 += av * bt[o+3]
				}
				cj[0], cj[1], cj[2], cj[3] = s0, s1, s2, s3
			}
			for ; j < n; j++ {
				s := crow[j]
				for p, k := range ks {
					s += vs[p] * bk[int(k)*n+j]
				}
				crow[j] = s
			}
		}
	}
}
