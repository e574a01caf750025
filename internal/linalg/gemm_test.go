package linalg

import (
	"math"
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

// zeroPattern shapes the zeros of a test A matrix: the ReLU-like random
// share, whole zero rows, and rows with a single nonzero element.
type zeroPattern int

const (
	dense    zeroPattern = iota
	relu                 // 45% zeros, ±0 mixed
	zeroRows             // every other row all zero (+0 and −0 rows alternate)
	oneHot               // at most one nonzero per row
)

// withZeros returns a random m×kk matrix with the given zero pattern.
func withZeros(rng *rand.Rand, m, kk int, p zeroPattern) *Matrix {
	a := randMat(rng, m, kk)
	switch p {
	case relu:
		sparsify(rng, a, 0.45)
	case zeroRows:
		for i := 0; i < m; i += 2 {
			z := 0.0
			if i%4 == 2 {
				z = math.Copysign(0, -1)
			}
			for k := range a.Row(i) {
				a.Row(i)[k] = z
			}
		}
	case oneHot:
		for i := 0; i < m; i++ {
			row := a.Row(i)
			hot := rng.Intn(kk + 1) // kk: the row is all zero
			for k := range row {
				if k != hot {
					row[k] = 0
				}
			}
		}
	}
	return a
}

// sameBits reports the first element where the kernel's C differs in bits
// from the reference's, or -1.
func sameBits(got, want *Matrix) int {
	for i := range got.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			return i
		}
	}
	return -1
}

func gemmCase(t *testing.T, rng *rand.Rand, m, kk, n int, p zeroPattern) {
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
		a := withZeros(rng, m, kk, p)
		b := randMat(rng, v.br, v.bc)
		c := randMat(rng, m, n)
		want := NewMatrix(c.Rows, c.Cols)
		copy(want.Data, c.Data)
		refGemm(a, b, want, v.tb)
		v.kernel(a, b, c)
		if i := sameBits(c, want); i >= 0 {
			t.Fatalf("Gemm%s %dx%dx%d pattern %d: element %d = %v, scalar reference %v",
				v.name, m, kk, n, p, i, c.Data[i], want.Data[i])
		}
	}
}

// TestGemmMatchesScalar sweeps shapes around every tile boundary — including
// sizes that are no multiple of a tile, 1×N / N×1 degenerates, and empty
// inner dimensions — with dense and zero-rich A (ReLU-like, all-zero rows,
// one-hot rows), asserting bit-identity with the scalar triple loop. Inner
// dimensions past the gather chunk (130, 300), the MOGD hidden-layer shape
// and the output layer's direct-loop shapes (NT with one output column, NN
// with one inner element, at 8 and 32 rows) are swept as well.
func TestGemmMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 17}
	for _, p := range []zeroPattern{dense, relu, zeroRows, oneHot} {
		for _, m := range dims {
			for _, kk := range dims {
				for _, n := range dims {
					gemmCase(t, rng, m, kk, n, p)
				}
			}
		}
		for _, shape := range [][3]int{{8, 64, 64}, {3, 128, 9}, {5, 129, 12}, {4, 130, 13}, {2, 300, 17}, {9, 256, 8}, {8, 64, 1}, {32, 64, 1}, {8, 1, 64}, {32, 1, 64}} {
			gemmCase(t, rng, shape[0], shape[1], shape[2], p)
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

// TestGemmProperty is the randomized scalar-vs-kernel equivalence check over
// both kernels and every zero pattern, suitable for the -race matrix (the
// kernels are single-goroutine; the race build mainly exercises the
// bounds/aliasing instrumentation).
func TestGemmProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(ms uint8, ks uint16, ns, ps uint8, nt bool) bool {
		m := int(ms%24) + 1
		kk := int(ks % 300) // past two gather chunks
		n := int(ns%24) + 1
		a := withZeros(rng, m, kk, zeroPattern(ps%4))
		br, bc, kernel := kk, n, GemmNN
		if nt {
			br, bc, kernel = n, kk, GemmNT
		}
		b := randMat(rng, br, bc)
		c := randMat(rng, m, n)
		want := NewMatrix(c.Rows, c.Cols)
		copy(want.Data, c.Data)
		refGemm(a, b, want, nt)
		kernel(a, b, c)
		return sameBits(c, want) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGemmSkipCaveat pins the two cases the contract excludes, where
// skipping a ±0 A element differs from adding its product: a −0 in C, which
// the reference's −0 + (+0) turns into +0 and the kernels leave −0, and an
// infinite B element, whose 0·∞ product is NaN in the reference.
func TestGemmSkipCaveat(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, nt := range []bool{false, true} {
		kernel := GemmNN
		if nt {
			kernel = GemmNT
		}
		a := NewMatrixFrom(1, 1, []float64{0})
		c := NewMatrixFrom(1, 1, []float64{negZero})
		want := NewMatrixFrom(1, 1, []float64{negZero})
		b := NewMatrixFrom(1, 1, []float64{1})
		refGemm(a, b, want, nt)
		kernel(a, b, c)
		if !math.Signbit(c.Data[0]) || math.Signbit(want.Data[0]) {
			t.Fatalf("nt=%v: −0 in C: kernel %v (signbit %v), reference %v (signbit %v); want −0 and +0",
				nt, c.Data[0], math.Signbit(c.Data[0]), want.Data[0], math.Signbit(want.Data[0]))
		}
		c.Data[0], want.Data[0] = 1, 1
		b.Data[0] = math.Inf(1)
		refGemm(a, b, want, nt)
		kernel(a, b, c)
		if c.Data[0] != 1 || !math.IsNaN(want.Data[0]) {
			t.Fatalf("nt=%v: infinite B: kernel %v, reference %v; want 1 and NaN", nt, c.Data[0], want.Data[0])
		}
	}
}

// FuzzGemm compares both kernels with the reference on shapes and zero
// patterns the fuzzer chooses: bit i of pattern (cycled) zeroes A element i,
// and the following bit picks the zero's sign. C holds no −0 and B is finite,
// the contract's condition, so the results must agree bit for bit.
func FuzzGemm(f *testing.F) {
	f.Add(uint8(8), uint16(64), uint8(64), []byte{0x5a, 0x3c}, int64(1))
	f.Add(uint8(1), uint16(130), uint8(9), []byte{0xff}, int64(2))
	f.Add(uint8(3), uint16(300), uint8(13), []byte{0x00}, int64(3))
	f.Add(uint8(4), uint16(0), uint8(5), []byte{}, int64(4))
	f.Fuzz(func(t *testing.T, ms uint8, ks uint16, ns uint8, pattern []byte, seed int64) {
		m, kk, n := int(ms%17), int(ks%400), int(ns%33)
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, m, kk)
		if len(pattern) > 0 {
			bit := func(i int) bool { return pattern[i/8%len(pattern)]>>(i%8)&1 == 1 }
			for i := range a.Data {
				if bit(2 * i) {
					a.Data[i] = 0
					if bit(2*i + 1) {
						a.Data[i] = math.Copysign(0, -1)
					}
				}
			}
		}
		for _, nt := range []bool{false, true} {
			br, bc, kernel := kk, n, GemmNN
			if nt {
				br, bc, kernel = n, kk, GemmNT
			}
			b := randMat(rng, br, bc)
			c := randMat(rng, m, n)
			want := NewMatrix(m, n)
			copy(want.Data, c.Data)
			refGemm(a, b, want, nt)
			kernel(a, b, c)
			if i := sameBits(c, want); i >= 0 {
				t.Fatalf("nt=%v %dx%dx%d: element %d = %v, reference %v", nt, m, kk, n, i, c.Data[i], want.Data[i])
			}
		}
	})
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

// sparsify zeroes each element of m with probability frac, half of them as
// −0, and returns m.
func sparsify(rng *rand.Rand, m *Matrix, frac float64) *Matrix {
	for i := range m.Data {
		if rng.Float64() < frac {
			m.Data[i] = 0
			if rng.Intn(2) == 0 {
				m.Data[i] = math.Copysign(0, -1)
			}
		}
	}
	return m
}
