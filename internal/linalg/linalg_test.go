package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 3)
	m.Set(1, 1, 5)
	if got := m.At(0, 2); got != 3 {
		t.Fatalf("At(0,2) = %v, want 3", got)
	}
	row := m.Row(1)
	if row[1] != 5 {
		t.Fatalf("Row(1)[1] = %v, want 5", row[1])
	}
}

func TestNewMatrixFromPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad length")
		}
	}()
	NewMatrixFrom(2, 2, []float64{1, 2, 3})
}

// randomSPD builds a random symmetric positive-definite matrix A = BBᵀ + n·I.
func randomSPD(n int, rng *rand.Rand) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n, n)
	GemmNT(b, b, a)
	a.AddDiag(float64(n))
	return a
}

// mulVec returns a·x, one Dot per row.
func mulVec(a *Matrix, x []float64) []float64 {
	y := make([]float64, a.Rows)
	for i := range y {
		y[i] = Dot(a.Row(i), x)
	}
	return y
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		a := randomSPD(n, rng)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("Cholesky failed on SPD matrix: %v", err)
		}
		llt := NewMatrix(n, n)
		GemmNT(l, l, llt)
		for i := range a.Data {
			if !almostEq(a.Data[i], llt.Data[i], 1e-8) {
				t.Fatalf("trial %d: L·Lᵀ != A at index %d: %v vs %v", trial, i, llt.Data[i], a.Data[i])
			}
		}
	}
}

// refCholesky is the textbook row-by-row factorization that Cholesky and
// CholeskyInPlace must reproduce bit for bit.
func refCholesky(m *Matrix) (*Matrix, error) {
	n := m.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := m.At(i, j)
			li := l.Row(i)
			lj := l.Row(j)
			for k := 0; k < j; k++ {
				sum -= li[k] * lj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return nil, ErrNotPositiveDefinite
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	return l, nil
}

// TestCholeskyMatchesReference compares Cholesky and CholeskyInPlace with
// the textbook loop by bits on SPD matrices of every size up to 70 (every
// remainder of the four-row blocks), and on matrices made indefinite at one
// pivot, where all three must fail. CholeskyInPlace must neither read nor
// write the upper triangle, which holds NaN here.
func TestCholeskyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 140; trial++ {
		n := 1 + trial%70
		a := randomSPD(n, rng)
		if trial >= 70 {
			p := rng.Intn(n)
			a.Set(p, p, -a.At(p, p))
		}
		want, werr := refCholesky(a)
		got, err := Cholesky(a)
		in := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := range in.Row(i) {
				in.Set(i, j, math.NaN())
				if j <= i {
					in.Set(i, j, a.At(i, j))
				}
			}
		}
		ierr := CholeskyInPlace(in)
		if (werr == nil) != (err == nil) || (werr == nil) != (ierr == nil) {
			t.Fatalf("trial %d (n %d): errors %v and %v in place, reference %v", trial, n, err, ierr, werr)
		}
		if werr != nil {
			continue
		}
		for i := range want.Data {
			r, c := i/n, i%n
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("trial %d: Cholesky[%d,%d] = %v, reference %v", trial, r, c, got.Data[i], want.Data[i])
			}
			if c <= r && math.Float64bits(in.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("trial %d: CholeskyInPlace[%d,%d] = %v, reference %v", trial, r, c, in.Data[i], want.Data[i])
			}
			if c > r && !math.IsNaN(in.Data[i]) {
				t.Fatalf("trial %d: CholeskyInPlace wrote the upper triangle at [%d,%d]", trial, r, c)
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{1, 0, 0, -1})
	if _, err := Cholesky(m); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
	r := NewMatrix(2, 3)
	if _, err := Cholesky(r); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestCholSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(10)
		a := randomSPD(n, rng)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		b := mulVec(a, x)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		got := CholSolve(l, b)
		for i := range x {
			if !almostEq(got[i], x[i], 1e-7) {
				t.Fatalf("trial %d: solve mismatch at %d: %v vs %v", trial, i, got[i], x[i])
			}
		}
	}
}

func TestLogDetFromChol(t *testing.T) {
	// diag(4, 9) has det 36, logdet = log 36.
	a := NewMatrixFrom(2, 2, []float64{4, 0, 0, 9})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := LogDetFromChol(l); !almostEq(got, math.Log(36), 1e-12) {
		t.Fatalf("logdet = %v, want %v", got, math.Log(36))
	}
}

func TestDotNormDist(t *testing.T) {
	a := []float64{3, 4}
	if Dot(a, a) != 25 {
		t.Fatalf("Dot = %v", Dot(a, a))
	}
}

func TestAXPYScaleCopy(t *testing.T) {
	y := []float64{12, 24}
	Scale(0.5, y)
	if y[0] != 6 || y[1] != 12 {
		t.Fatalf("Scale = %v", y)
	}
}

func TestMeanStd(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEq(Mean(v), 5, 1e-12) {
		t.Fatalf("Mean = %v", Mean(v))
	}
	if !almostEq(StdDev(v), 2, 1e-12) {
		t.Fatalf("StdDev = %v", StdDev(v))
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty-input mean/std should be 0")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp wrong")
	}
}

// Property: Dot is symmetric and bilinear in the first argument.
func TestDotProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
		}
		if !almostEq(Dot(a, b), Dot(b, a), 1e-6*(1+math.Abs(Dot(a, b)))) {
			return false
		}
		a2 := append([]float64(nil), a...)
		Scale(2, a2)
		return almostEq(Dot(a2, b), 2*Dot(a, b), 1e-6*(1+math.Abs(Dot(a, b))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cholesky solve is a right inverse: A · CholSolve(L, b) ≈ b.
func TestCholSolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		a := randomSPD(n, r)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		x := CholSolve(l, b)
		back := mulVec(a, x)
		for i := range b {
			if !almostEq(back[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
