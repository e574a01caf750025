package linalg

import (
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
