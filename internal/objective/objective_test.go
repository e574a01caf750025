package objective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	cases := []struct {
		p, q Point
		want bool
	}{
		{Point{1, 1}, Point{2, 2}, true},
		{Point{1, 2}, Point{2, 1}, false},
		{Point{1, 1}, Point{1, 1}, false}, // equal: no strict improvement
		{Point{1, 1}, Point{1, 2}, true},
		{Point{2, 2}, Point{1, 1}, false},
	}
	for i, c := range cases {
		if got := c.p.Dominates(c.q); got != c.want {
			t.Errorf("case %d: %v Dominates %v = %v, want %v", i, c.p, c.q, got, c.want)
		}
	}
}

func TestWeaklyDominates(t *testing.T) {
	if !(Point{1, 1}).WeaklyDominates(Point{1, 1}) {
		t.Fatal("point should weakly dominate itself")
	}
	if (Point{1, 2}).WeaklyDominates(Point{2, 1}) {
		t.Fatal("incomparable points should not weakly dominate")
	}
}

// Property: dominance is irreflexive and antisymmetric.
func TestDominanceProperties(t *testing.T) {
	f := func(a, b [3]float64) bool {
		p, q := Point(a[:]), Point(b[:])
		for _, v := range append(p.Clone(), q...) {
			if math.IsNaN(v) {
				return true
			}
		}
		if p.Dominates(p) {
			return false // irreflexive
		}
		if p.Dominates(q) && q.Dominates(p) {
			return false // antisymmetric
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: dominance is transitive.
func TestDominanceTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		p := Point{rng.Float64(), rng.Float64()}
		q := Point{p[0] + rng.Float64(), p[1] + rng.Float64()}
		r := Point{q[0] + rng.Float64(), q[1] + rng.Float64()}
		if p.Dominates(q) && q.Dominates(r) && !p.Dominates(r) {
			t.Fatalf("transitivity violated: %v %v %v", p, q, r)
		}
	}
}

func TestFilter(t *testing.T) {
	sols := []Solution{
		{F: Point{1, 5}},
		{F: Point{2, 2}},
		{F: Point{5, 1}},
		{F: Point{3, 3}}, // dominated by (2,2)
		{F: Point{2, 2}}, // duplicate
	}
	out := Filter(sols)
	if len(out) != 3 {
		t.Fatalf("Filter returned %d points, want 3: %v", len(out), out)
	}
	// No point in the output may dominate another.
	for i := range out {
		for j := range out {
			if i != j && out[i].F.Dominates(out[j].F) {
				t.Fatalf("filtered set contains dominated point: %v dominates %v", out[i].F, out[j].F)
			}
		}
	}
}

// Property: Filter output is mutually non-dominated and a subset of input.
func TestFilterProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		sols := make([]Solution, n)
		for i := range sols {
			sols[i] = Solution{F: Point{rng.Float64(), rng.Float64()}}
		}
		out := Filter(sols)
		if len(out) == 0 || len(out) > n {
			return false
		}
		for i := range out {
			for j := range out {
				if i != j && out[i].F.Dominates(out[j].F) {
					return false
				}
			}
		}
		// every input point must be dominated-or-equal by some output point
		for _, s := range sols {
			ok := false
			for _, o := range out {
				if o.F.WeaklyDominates(s.F) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Utopia: Point{100, 8}, Nadir: Point{300, 24}}
	if got := r.Volume(); got != 200*16 {
		t.Fatalf("Volume = %v, want 3200", got)
	}
	m := r.Middle()
	if m[0] != 200 || m[1] != 16 {
		t.Fatalf("Middle = %v, want (200,16)", m)
	}
	if !r.Contains(Point{150, 16}) || r.Contains(Point{99, 16}) {
		t.Fatal("Contains wrong")
	}
}

// TestSubdivide2D reproduces the paper's Fig. 2(a) example: probing TPCx-BB
// Q2's rectangle [ (100,8), (300,24) ] at fM=(150,16) must leave exactly the
// two unshaded sub-hyperrectangles.
func TestSubdivide2D(t *testing.T) {
	r := Rect{Utopia: Point{100, 8}, Nadir: Point{300, 24}}
	subs := r.Subdivide(Point{150, 16})
	if len(subs) != 2 {
		t.Fatalf("Subdivide returned %d rects, want 2: %v", len(subs), subs)
	}
	// (U1,N1) = [(100,16),(150,24)] and (U2,N2) = [(150,8),(300,16)]
	found1, found2 := false, false
	for _, s := range subs {
		if s.Utopia[0] == 100 && s.Utopia[1] == 16 && s.Nadir[0] == 150 && s.Nadir[1] == 24 {
			found1 = true
		}
		if s.Utopia[0] == 150 && s.Utopia[1] == 8 && s.Nadir[0] == 300 && s.Nadir[1] == 16 {
			found2 = true
		}
	}
	if !found1 || !found2 {
		t.Fatalf("unexpected subdivision: %v", subs)
	}
}

func TestSubdivideVolumeInvariant(t *testing.T) {
	// Sum of kept volumes + discarded lower/upper cells == total volume.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(2) // 2 or 3 dims
		u := make(Point, k)
		n := make(Point, k)
		fm := make(Point, k)
		for i := 0; i < k; i++ {
			u[i] = rng.Float64()
			n[i] = u[i] + 0.1 + rng.Float64()
			fm[i] = u[i] + (n[i]-u[i])*(0.05+0.9*rng.Float64())
		}
		r := Rect{Utopia: u, Nadir: n}
		subs := r.Subdivide(fm)
		sum := 0.0
		for _, s := range subs {
			sum += s.Volume()
			if s.Volume() < 0 {
				return false
			}
		}
		lower := Rect{Utopia: u, Nadir: fm}.Volume()
		upper := Rect{Utopia: fm, Nadir: n}.Volume()
		return math.Abs(sum+lower+upper-r.Volume()) < 1e-9*r.Volume()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSubdivideClampsOutOfRangeProbe(t *testing.T) {
	r := Rect{Utopia: Point{0, 0}, Nadir: Point{1, 1}}
	subs := r.Subdivide(Point{-0.5, 0.5}) // probe outside: clamped to boundary
	for _, s := range subs {
		if !r.Contains(s.Utopia) || !r.Contains(s.Nadir) {
			t.Fatalf("subdivision escapes parent: %v", s)
		}
	}
}

func TestGridCells(t *testing.T) {
	r := Rect{Utopia: Point{0, 0}, Nadir: Point{1, 2}}
	cells := r.GridCells(2)
	if len(cells) != 4 {
		t.Fatalf("GridCells(2) in 2D returned %d cells, want 4", len(cells))
	}
	sum := 0.0
	for _, c := range cells {
		sum += c.Volume()
	}
	if math.Abs(sum-r.Volume()) > 1e-12 {
		t.Fatalf("grid volumes sum to %v, want %v", sum, r.Volume())
	}
	// l=1 returns the rect itself.
	one := r.GridCells(1)
	if len(one) != 1 || one[0].Volume() != r.Volume() {
		t.Fatal("GridCells(1) should return the original rectangle")
	}
}

func TestBounds(t *testing.T) {
	refs := []Point{{100, 24}, {300, 8}}
	u, n := Bounds(refs)
	if u[0] != 100 || u[1] != 8 || n[0] != 300 || n[1] != 24 {
		t.Fatalf("Bounds = %v, %v", u, n)
	}
	if u2, n2 := Bounds(nil); u2 != nil || n2 != nil {
		t.Fatal("Bounds(nil) should return nil")
	}
}

func TestNormalize(t *testing.T) {
	p := Normalize(Point{150, 16}, Point{100, 8}, Point{300, 24})
	if math.Abs(p[0]-0.25) > 1e-12 || math.Abs(p[1]-0.5) > 1e-12 {
		t.Fatalf("Normalize = %v", p)
	}
	// degenerate axis
	d := Normalize(Point{5}, Point{5}, Point{5})
	if d[0] != 0 {
		t.Fatalf("degenerate Normalize = %v", d)
	}
}

func TestDist(t *testing.T) {
	if got := (Point{0, 3}).Dist(Point{4, 0}); got != 5 {
		t.Fatalf("Dist = %v", got)
	}
}

func TestSolutionClone(t *testing.T) {
	s := Solution{F: Point{1, 2}, X: []float64{3, 4}}
	c := s.Clone()
	c.F[0] = 9
	c.X[0] = 9
	if s.F[0] != 1 || s.X[0] != 3 {
		t.Fatal("Clone is shallow")
	}
}
