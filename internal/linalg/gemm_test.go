package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refGemm is the textbook triple loop every kernel must match bit-for-bit:
// ascending-k accumulation starting from C's prior value.
func refGemm(a, b, c *Matrix, tb bool) {
	rowB := func(k, j int) float64 {
		if tb {
			return b.At(j, k)
		}
		return b.At(k, j)
	}
	m, kk := a.Rows, a.Cols
	n := b.Cols
	if tb {
		n = b.Rows
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c.At(i, j)
			for k := 0; k < kk; k++ {
				s += a.At(i, k) * rowB(k, j)
			}
			c.Set(i, j, s)
		}
	}
}

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func gemmCase(t *testing.T, rng *rand.Rand, m, kk, n int) {
	t.Helper()
	type variant struct {
		name   string
		kernel func(a, b, c *Matrix)
		br, bc int
		tb     bool
	}
	for _, v := range []variant{
		{"NN", GemmNN, kk, n, false},
		{"NT", GemmNT, n, kk, true},
	} {
		a := randMat(rng, m, kk)
		b := randMat(rng, v.br, v.bc)
		c := randMat(rng, m, n)
		want := NewMatrix(c.Rows, c.Cols)
		copy(want.Data, c.Data)
		refGemm(a, b, want, v.tb)
		v.kernel(a, b, c)
		for i := range c.Data {
			if c.Data[i] != want.Data[i] {
				t.Fatalf("Gemm%s %dx%dx%d: element %d = %v, scalar reference %v",
					v.name, m, kk, n, i, c.Data[i], want.Data[i])
			}
		}
	}
}

// TestGemmMatchesScalar sweeps shapes around every tile boundary — including
// non-block-divisible sizes, 1×N / N×1 degenerates, and empty inner
// dimensions — asserting bit-identity with the scalar triple loop.
func TestGemmMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17}
	for _, m := range dims {
		for _, kk := range dims {
			for _, n := range dims {
				gemmCase(t, rng, m, kk, n)
			}
		}
	}
	// Degenerate inner dimension: C must be left exactly as-is.
	for _, shape := range [][2]int{{1, 1}, {3, 5}} {
		a := NewMatrix(shape[0], 0)
		b := NewMatrix(shape[1], 0)
		c := randMat(rng, shape[0], shape[1])
		want := NewMatrix(c.Rows, c.Cols)
		copy(want.Data, c.Data)
		GemmNT(a, b, c)
		for i := range c.Data {
			if c.Data[i] != want.Data[i] {
				t.Fatalf("GemmNT with K=0 modified C")
			}
		}
	}
}

// TestGemmProperty is the randomized scalar-vs-blocked equivalence check,
// suitable for the -race matrix (the kernels are single-goroutine; the race
// build mainly exercises the bounds/aliasing instrumentation).
func TestGemmProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(ms, ks, ns uint8) bool {
		m := int(ms%24) + 1
		kk := int(ks % 96)
		n := int(ns%24) + 1
		a := randMat(rng, m, kk)
		b := randMat(rng, n, kk)
		c := randMat(rng, m, n)
		want := NewMatrix(c.Rows, c.Cols)
		copy(want.Data, c.Data)
		refGemm(a, b, want, true)
		GemmNT(a, b, c)
		for i := range c.Data {
			if c.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func wantPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestGemmGuards(t *testing.T) {
	a := NewMatrix(4, 3)
	b := NewMatrix(5, 3)
	c := NewMatrix(4, 5)

	// Dimension mismatches.
	wantPanic(t, "NT inner", func() { GemmNT(a, NewMatrix(5, 2), c) })
	wantPanic(t, "NT out", func() { GemmNT(a, b, NewMatrix(3, 5)) })
	wantPanic(t, "NN inner", func() { GemmNN(a, NewMatrix(2, 5), c) })

	// Aliasing: C sharing backing memory with A or B must panic, including
	// partial overlap through a shared backing slice.
	sq := NewMatrix(4, 4)
	wantPanic(t, "alias C==A", func() { GemmNT(sq, NewMatrix(4, 4), sq) })
	backing := make([]float64, 32)
	av := NewMatrixFrom(4, 4, backing[:16])
	cv := NewMatrixFrom(4, 4, backing[8:24]) // overlaps av's tail
	wantPanic(t, "alias partial", func() { GemmNT(av, NewMatrix(4, 4), cv) })

	// Disjoint views over one backing slice are fine.
	bv := NewMatrixFrom(4, 4, backing[16:32])
	GemmNT(av, NewMatrix(4, 4), bv)
}
