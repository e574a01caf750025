package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/objective"
)

var (
	u2 = objective.Point{0, 0}
	n2 = objective.Point{1, 1}
)

func TestUncertainFractionEmpty(t *testing.T) {
	if got := UncertainFraction(nil, u2, n2); got != 1 {
		t.Fatalf("empty frontier uncertainty = %v, want 1", got)
	}
}

func TestUncertainFractionSinglePoint2D(t *testing.T) {
	// A single point at the center: dominated quadrant 0.25, empty quadrant
	// 0.25, uncertain 0.5.
	got := UncertainFraction([]objective.Point{{0.5, 0.5}}, u2, n2)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("uncertainty = %v, want 0.5", got)
	}
}

func TestUncertainFractionDenseFrontier2D(t *testing.T) {
	// A dense antidiagonal frontier leaves little uncertainty.
	var pts []objective.Point
	for i := 0; i <= 100; i++ {
		x := float64(i) / 100
		pts = append(pts, objective.Point{x, 1 - x})
	}
	got := UncertainFraction(pts, u2, n2)
	if got > 0.02 {
		t.Fatalf("dense frontier uncertainty = %v, want < 0.02", got)
	}
}

func TestUncertainFractionMonotoneInPoints(t *testing.T) {
	// Adding frontier points never increases uncertainty.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pts []objective.Point
		prev := 1.0
		for i := 0; i < 10; i++ {
			// random antidiagonal-ish staircase (mutually non-dominated)
			x := float64(i)/10 + rng.Float64()*0.05
			y := prev - 0.05 - rng.Float64()*0.04
			prev = y
			pts = append(pts, objective.Point{x, y})
			u1 := UncertainFraction(pts[:i+1], u2, n2)
			if i > 0 {
				u0 := UncertainFraction(pts[:i], u2, n2)
				if u1 > u0+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUncertainFraction3DMatchesAnalytic(t *testing.T) {
	// One point at the center of the cube: dominated octant 1/8, empty
	// octant 1/8, uncertain 3/4.
	u3 := objective.Point{0, 0, 0}
	n3 := objective.Point{1, 1, 1}
	got := UncertainFraction([]objective.Point{{0.5, 0.5, 0.5}}, u3, n3)
	if math.Abs(got-0.75) > 0.01 {
		t.Fatalf("3D uncertainty = %v, want ~0.75", got)
	}
}

func TestUncertain2DAgreesWithMC(t *testing.T) {
	pts := []objective.Point{{0.2, 0.8}, {0.5, 0.4}, {0.9, 0.1}}
	exact := UncertainFraction(pts, u2, n2)
	mc := uncertainMC(clipToBox(pts, u2, n2), u2, n2, 200_000)
	if math.Abs(exact-mc) > 0.01 {
		t.Fatalf("2D exact %v vs MC %v", exact, mc)
	}
}

func TestHypervolume(t *testing.T) {
	// Point at center dominates a quadrant of volume 0.25.
	got := Hypervolume([]objective.Point{{0.5, 0.5}}, u2, n2)
	if math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("HV = %v, want 0.25", got)
	}
	if hv := Hypervolume(nil, u2, n2); hv != 0 {
		t.Fatalf("empty HV = %v", hv)
	}
	// Utopia point dominates everything.
	if hv := Hypervolume([]objective.Point{{0, 0}}, u2, n2); math.Abs(hv-1) > 1e-12 {
		t.Fatalf("utopia HV = %v, want 1", hv)
	}
	// 3D MC path.
	u3 := objective.Point{0, 0, 0}
	n3 := objective.Point{1, 1, 1}
	hv3 := Hypervolume([]objective.Point{{0.5, 0.5, 0.5}}, u3, n3)
	if math.Abs(hv3-0.125) > 0.01 {
		t.Fatalf("3D HV = %v, want ~0.125", hv3)
	}
}

func TestHypervolumePlusSinglePointUncertainty(t *testing.T) {
	// For any single point p: uncertain + dominated + empty == 1 in 2D.
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		p := objective.Point{math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))}
		un := UncertainFraction([]objective.Point{p}, u2, n2)
		hv := Hypervolume([]objective.Point{p}, u2, n2)
		empty := p[0] * p[1]
		return math.Abs(un+hv+empty-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConsistency(t *testing.T) {
	prev := []objective.Point{{0.3, 0.7}, {0.7, 0.3}}
	// Identical frontier: perfectly consistent.
	if c := Consistency(prev, prev, u2, n2); c != 0 {
		t.Fatalf("self consistency = %v, want 0", c)
	}
	// A dominating frontier is also consistent.
	better := []objective.Point{{0.2, 0.6}, {0.6, 0.2}}
	if c := Consistency(prev, better, u2, n2); c != 0 {
		t.Fatalf("improving consistency = %v, want 0", c)
	}
	// A contradicting frontier (worse in both objectives, far away).
	worse := []objective.Point{{0.9, 0.9}}
	if c := Consistency(prev, worse, u2, n2); c < 0.2 {
		t.Fatalf("contradiction consistency = %v, want > 0.2", c)
	}
	// Edge cases.
	if c := Consistency(nil, prev, u2, n2); c != 0 {
		t.Fatalf("empty prev = %v", c)
	}
	if c := Consistency(prev, nil, u2, n2); !math.IsInf(c, 1) {
		t.Fatalf("empty next = %v, want +Inf", c)
	}
}

func TestCoverage(t *testing.T) {
	pts := []objective.Point{
		{0.2, 0.8}, {0.5, 0.5}, {0.8, 0.2}, // frontier
		{0.6, 0.6}, // dominated by (0.5,0.5)
		{0.2, 0.8}, // duplicate
	}
	if c := Coverage(pts, u2, n2); c != 3 {
		t.Fatalf("Coverage = %d, want 3", c)
	}
	if c := Coverage(nil, u2, n2); c != 0 {
		t.Fatalf("empty Coverage = %d", c)
	}
}

func TestDegenerateBoxSentinels(t *testing.T) {
	pts := []objective.Point{{0.5, 0.5}}
	inverted := objective.Point{1, 1}
	origin := objective.Point{0, 0}
	if !math.IsNaN(UncertainFraction(pts, inverted, origin)) {
		t.Fatal("inverted box: UncertainFraction should be NaN")
	}
	if !math.IsNaN(Hypervolume(pts, inverted, origin)) {
		t.Fatal("inverted box: Hypervolume should be NaN")
	}
	if !math.IsNaN(Consistency(pts, pts, inverted, origin)) {
		t.Fatal("inverted box: Consistency should be NaN")
	}
	if c := Coverage(pts, inverted, origin); c != 0 {
		t.Fatalf("inverted box: Coverage = %d, want 0", c)
	}
	nan := objective.Point{math.NaN(), 1}
	if !math.IsNaN(Hypervolume(pts, origin, nan)) {
		t.Fatal("NaN corner: Hypervolume should be NaN")
	}
	inf := objective.Point{math.Inf(1), 1}
	if !math.IsNaN(Hypervolume(pts, origin, inf)) {
		t.Fatal("Inf corner: Hypervolume should be NaN")
	}
	if len(origin) != 2 || BoxValid(origin, objective.Point{1}) {
		t.Fatal("dimension mismatch should invalidate the box")
	}
	// Zero-span axes stay valid (Normalize maps them to 0).
	if !BoxValid(objective.Point{0, 0}, objective.Point{0, 1}) {
		t.Fatal("zero-span axis should keep the box valid")
	}
}

func TestUnusablePointsDropped(t *testing.T) {
	clean := []objective.Point{{0.5, 0.5}}
	dirty := []objective.Point{
		{0.5, 0.5},
		{math.NaN(), 0.2},  // non-finite: dropped
		{0.1, math.Inf(1)}, // non-finite: dropped
		{0.1, 0.2, 0.3},    // wrong dimension: dropped
		{-3, 0.5},          // out of box: clamped onto it
		{0.5, 7},           // out of box: clamped onto it
	}
	// The clamped points land on the box faces and only shrink uncertainty;
	// the key property is that no NaN leaks out and HV stays finite.
	hv := Hypervolume(dirty, u2, n2)
	if math.IsNaN(hv) || hv < Hypervolume(clean, u2, n2) {
		t.Fatalf("dirty HV = %v", hv)
	}
	if u := UncertainFraction(dirty, u2, n2); math.IsNaN(u) || u > UncertainFraction(clean, u2, n2) {
		t.Fatalf("dirty uncertainty = %v", u)
	}
	if c := Consistency(dirty, dirty, u2, n2); c != 0 {
		t.Fatalf("dirty self-consistency = %v", c)
	}
	// A frontier of only unusable points behaves like an empty one.
	junk := []objective.Point{{math.NaN(), math.NaN()}}
	if u := UncertainFraction(junk, u2, n2); u != 1 {
		t.Fatalf("junk uncertainty = %v, want 1", u)
	}
	if hv := Hypervolume(junk, u2, n2); hv != 0 {
		t.Fatalf("junk HV = %v, want 0", hv)
	}
}

func TestDuplicateDedup(t *testing.T) {
	a := []objective.Point{{0.5, 0.5}}
	b := []objective.Point{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}
	if UncertainFraction(a, u2, n2) != UncertainFraction(b, u2, n2) {
		t.Fatal("duplicates should not change the measure")
	}
}

// clipToBoxRef is the dedup clipToBox replaced: every usable point is
// normalized and clamped, its coordinates are printed at 9 decimals into a
// string key, and a point is kept when its key is new. The reference model
// clipToBox must match bit for bit.
func clipToBoxRef(points []objective.Point, utopia, nadir objective.Point) []objective.Point {
	seen := make(map[string]bool)
	var out []objective.Point
	for _, p := range points {
		if !pointUsable(p, len(utopia)) {
			continue
		}
		q := objective.Normalize(p, utopia, nadir)
		key := ""
		for i := range q {
			if q[i] < 0 {
				q[i] = 0
			}
			if q[i] > 1 {
				q[i] = 1
			}
			key += strconv.FormatFloat(q[i], 'f', 9, 64) + "|"
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, q)
		}
	}
	return out
}

// checkClipToBox fails unless clipToBox and its reference return the same
// points, in the same order, with the same bits.
func checkClipToBox(t *testing.T, name string, points []objective.Point, utopia, nadir objective.Point) {
	t.Helper()
	got, want := clipToBox(points, utopia, nadir), clipToBoxRef(points, utopia, nadir)
	same := len(got) == len(want)
	for i := 0; same && i < len(got); i++ {
		same = len(got[i]) == len(want[i])
		for j := 0; same && j < len(got[i]); j++ {
			same = math.Float64bits(got[i][j]) == math.Float64bits(want[i][j])
		}
	}
	if !same {
		t.Fatalf("%s: clipToBox(%v, %v, %v)\n = %v\nwant %v", name, points, utopia, nadir, got, want)
	}
}

func TestClipToBoxMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name          string
		utopia, nadir objective.Point
		points        []objective.Point
	}{
		{"empty", u2, n2, nil},
		{"single", u2, n2, []objective.Point{{0.3, 0.7}}},
		{"exact duplicates", u2, n2, []objective.Point{{0.5, 0.5}, {0.2, 0.9}, {0.5, 0.5}, {0.2, 0.9}, {0.5, 0.5}}},
		// 0.1234567891 and …894 print 0.123456789; …896 and …904 print
		// 0.123456790, though …894 and …896 are closer than either pair.
		{"near duplicates at the 9th decimal", u2, n2, []objective.Point{
			{0.1234567891, 0.5}, {0.1234567896, 0.5}, {0.1234567894, 0.5}, {0.1234567904, 0.5},
			{0.1234567891, 0.5000000004}, {0.1234567891, 0.5000000006}, {0.12345679, 0.2},
		}},
		{"near on one axis only", u2, n2, []objective.Point{{0.4, 0.1}, {0.4, 0.9}, {0.4000000001, 0.1}, {0.1, 0.4}}},
		// -0 prints "-0.000000000", so it is not a duplicate of 0.
		{"negative zero", u2, n2, []objective.Point{{negZero, 0.5}, {0, 0.5}, {negZero, 0.5}, {0.5, negZero}, {0.5, 0}}},
		{"out of box", u2, n2, []objective.Point{{-3, 0.5}, {-1, 0.5}, {0.5, 7}, {0.5, 1}, {2, 2}, {5, 9}, {-1, -1}}},
		{"unusable points", u2, n2, []objective.Point{
			{nan, 0.2}, {0.1, inf}, {-inf, 0.1}, {0.1, 0.2, 0.3}, {0.1}, {}, {0.1, 0.2}, {0.1, 0.2},
		}},
		{"zero-span axis", objective.Point{0, 2}, objective.Point{1, 2}, []objective.Point{{0.3, 5}, {0.3, -5}, {0.3, 2}, {0.6, 2}}},
		{"all axes zero-span", objective.Point{1, 1}, objective.Point{1, 1}, []objective.Point{{0, 0}, {3, 4}}},
		{"inverted box", objective.Point{1, 1}, objective.Point{0, 0}, []objective.Point{{0.2, 0.2}, {0.7, 0.2}}},
		{"NaN box corner", objective.Point{nan, 0}, objective.Point{1, 1}, []objective.Point{{0.2, 0.3}, {0.9, 0.3}, {0.9, 0.4}}},
		{"infinite box corner", objective.Point{-inf, 0}, objective.Point{inf, 1}, []objective.Point{{0.2, 0.3}, {-0.9, 0.3}}},
		{"overflowing span", objective.Point{-1e308, 0}, objective.Point{1e308, 1}, []objective.Point{{1e308, 0.3}, {-1e308, 0.3}, {5, 0.3}}},
		{"zero-dimensional box", objective.Point{}, objective.Point{}, []objective.Point{{}, {1}, {}}},
		{"3D", objective.Point{0, 0, 0}, objective.Point{2, 4, 8}, []objective.Point{
			{1, 2, 4}, {1, 2, 4.000000001}, {1, 2, 4.00000001}, {1.000000001, 2, 4}, {3, 5, 9}, {4, 6, 10},
		}},
	}
	for _, c := range cases {
		checkClipToBox(t, c.name, c.points, c.utopia, c.nadir)
	}
	if got := clipToBox([]objective.Point{{negZero, 0.5}, {0, 0.5}}, u2, n2); len(got) != 2 {
		t.Fatalf("-0 and 0 merged: %v", got)
	}

	// Random frontiers clustered around a few centres, with perturbations
	// from 1e-11 to 1e-7 so that pairs straddle the 9th decimal.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(3)
		utopia, nadir := make(objective.Point, k), make(objective.Point, k)
		for i := range utopia {
			utopia[i] = rng.NormFloat64()
			nadir[i] = utopia[i] + float64(rng.Intn(3))*rng.Float64()
		}
		centres := make([]objective.Point, 1+rng.Intn(4))
		for c := range centres {
			centres[c] = make(objective.Point, k)
			for i := range centres[c] {
				centres[c][i] = utopia[i] + (nadir[i]-utopia[i])*(1.2*rng.Float64()-0.1)
			}
		}
		points := make([]objective.Point, rng.Intn(40))
		for n := range points {
			c := centres[rng.Intn(len(centres))]
			p := make(objective.Point, k)
			for i := range p {
				p[i] = c[i]
				if rng.Intn(2) == 0 {
					p[i] += (nadir[i] - utopia[i]) * rng.NormFloat64() * math.Pow(10, -7-4*rng.Float64())
				}
			}
			points[n] = p
		}
		checkClipToBox(t, fmt.Sprintf("trial %d", trial), points, utopia, nadir)
	}
}

// FuzzClipToBox checks clipToBox against its reference on any box,
// degenerate ones included. Byte 0 picks the dimension (0–3), the next 2k
// little-endian float64s are utopia and nadir, and the rest is points: a
// header byte (15 mod 16 adds a coordinate, making the point unusable),
// then per coordinate a control byte c and its payload — c%4 == 0: a raw
// float64; 1: a grid step of span/16 from utopia (one byte); 2 or 3: the
// previous point's coordinate plus a step of span·1e-10 (one byte), which
// lands near duplicates at the 9th decimal.
func FuzzClipToBox(f *testing.F) {
	f64 := func(b []byte, vs ...float64) []byte {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	box := f64([]byte{2}, 0, 0, 1, 1)
	f.Add(box)
	f.Add(append(append([]byte{}, box...), 0, 1, 8, 1, 8, 0, 2, 3, 2, 0, 0, 1, 8, 1, 8, 0, 1, 40, 1, 248))
	f.Add(append(f64([]byte{1}, 0, 1), 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0))
	f.Add(append(f64([]byte{3}, 0, 0, math.NaN(), 1, 1, 1), 0, 1, 4, 1, 4, 1, 4, 0, 2, 1, 2, 0, 3, 255))
	f.Add(append(f64([]byte{2}, math.Inf(-1), 0, 1, 0), 15, 1, 4, 1, 4, 1, 4, 0, 1, 4, 1, 4))
	f.Add([]byte{0, 0, 0, 15, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		k := int(data[0] % 4)
		data = data[1:]
		if len(data) < 16*k {
			return
		}
		read := func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
		utopia, nadir := make(objective.Point, k), make(objective.Point, k)
		for i := 0; i < k; i++ {
			utopia[i], nadir[i] = read(data[8*i:]), read(data[8*(k+i):])
		}
		data = data[16*k:]
		var points []objective.Point
		var prev objective.Point
	points:
		for len(data) > 0 && len(points) < 64 {
			dim := k
			if data[0]%16 == 15 {
				dim++
			}
			data = data[1:]
			p := make(objective.Point, dim)
			for i := range p {
				if len(data) < 2 {
					break points
				}
				c, u, span := data[0], 0.0, 1.0
				if i < k {
					u, span = utopia[i], nadir[i]-utopia[i]
				}
				switch {
				case c%4 == 0:
					if len(data) < 9 {
						break points
					}
					p[i] = read(data[1:])
					data = data[9:]
					continue
				case c%4 == 1:
					p[i] = u + span*float64(int8(data[1]))/16
				default:
					base := u
					if i < len(prev) {
						base = prev[i]
					}
					p[i] = base + span*float64(int8(data[1]))*1e-10
				}
				data = data[2:]
			}
			points = append(points, p)
			prev = p
		}
		checkClipToBox(t, "fuzz", points, utopia, nadir)
	})
}

// frontierPoints returns n points of a noisy convex 2D frontier in the unit
// box, with every tenth point repeated: the shape the quality block dedups.
func frontierPoints(n int) []objective.Point {
	rng := rand.New(rand.NewSource(3))
	pts := make([]objective.Point, n)
	for i := range pts {
		if i%10 == 9 {
			pts[i] = append(objective.Point(nil), pts[i-1]...)
			continue
		}
		x := rng.Float64()
		pts[i] = objective.Point{x, (1 - x) * (1 - x) * (0.9 + 0.2*rng.Float64())}
	}
	return pts
}

// BenchmarkClipToBox dedups a frontier the size a served answer carries
// (16 points) and a large one (1,000), which shows any quadratic scan.
func BenchmarkClipToBox(b *testing.B) {
	for _, n := range []int{16, 1000} {
		pts := frontierPoints(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(clipToBox(pts, u2, n2)) == 0 {
					b.Fatal("no points")
				}
			}
		})
	}
}
