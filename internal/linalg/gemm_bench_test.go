package linalg

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkGEMM measures the NT kernel on the MOGD hot shape: 8 multi-starts
// of activations through a 64×64 hidden layer (C += A·Wᵀ). A is dense, so
// this is the case where the kernel skips nothing (a DNN's input layer).
func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 8, 64)
	w := randMat(rng, 64, 64)
	c := NewMatrix(8, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmNT(a, w, c)
	}
}

// BenchmarkGEMMReLU is BenchmarkGEMM with 45% of A's elements zero, the
// share of ReLU outputs that did not fire in MOGD's hidden-layer passes.
func BenchmarkGEMMReLU(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := sparsify(rng, randMat(rng, 8, 64), 0.45)
	w := randMat(rng, 64, 64)
	c := NewMatrix(8, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmNT(a, w, c)
	}
}

// BenchmarkGEMMScalarRef is the unblocked triple loop on the same shape, kept
// as the speedup reference for the tiled kernel.
func BenchmarkGEMMScalarRef(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 8, 64)
	w := randMat(rng, 64, 64)
	c := NewMatrix(8, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refGemm(a, w, c, true)
	}
}

// BenchmarkGEMMOut measures the DNN output layer's shapes at 8 (MOGD's
// multi-starts) and 32 (a training mini-batch) rows: the forward pass into
// the one output (NT, n = 1) over hidden activations with 45% zeros, and
// the backward pass out of it (NN, K = 1).
func BenchmarkGEMMOut(b *testing.B) {
	for _, m := range []int{8, 32} {
		rng := rand.New(rand.NewSource(1))
		act := sparsify(rng, randMat(rng, m, 64), 0.45)
		w := randMat(rng, 1, 64)
		out := NewMatrix(m, 1)
		b.Run(fmt.Sprintf("NT%dx64x1", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GemmNT(act, w, out)
			}
		})
		delta := randMat(rng, m, 1)
		grad := NewMatrix(m, 64)
		b.Run(fmt.Sprintf("NN%dx1x64", m), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GemmNN(delta, w, grad)
			}
		})
	}
}
