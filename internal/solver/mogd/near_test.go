package mogd

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/model/analytic"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

// nearSolver is multiDimSolver with the NearStarts upgrade enabled and a
// telemetry registry of its own, whose near-hit counter nearHits reads.
func nearSolver(t *testing.T, seed int64) *Solver {
	t.Helper()
	lat := analytic.Latency{D: 4, MaxExec: 8, MaxCores: 3, Serial: 20, Work: 2400, Shuffle: 6}
	cost := analytic.CoreCost{D: 4, MaxExec: 8, MaxCores: 3}
	return newSolver(t, []model.Model{lat, cost}, nil, Config{Seed: seed, NearStarts: true, Telemetry: telemetry.New()})
}

// nearHits reads how many probes the solver warm-started from a stored
// neighbour (udao_pf_subcache_near_hits_total).
func nearHits(s *Solver) uint64 { return s.telNear.Value() }

func nearBatch(shift float64, n int) []solver.CO {
	cos := make([]solver.CO, n)
	for i := range cos {
		cos[i] = solver.CO{Target: 0, Lo: []float64{0, 1}, Hi: []float64{500 - 40*float64(i) - shift, 24}}
	}
	return cos
}

// TestNearStartsSnapshotAndCounting proves the two halves of the NearStarts
// contract: a batch never warm-starts from entries its own probes insert
// (the first batch on a fresh solver sees an empty snapshot), and a later
// batch over neighbouring boxes warm-starts from the first batch's entries.
func TestNearStartsSnapshotAndCounting(t *testing.T) {
	s := nearSolver(t, 7)
	s.SolveBatch(nearBatch(0, 6), 17)
	if got := nearHits(s); got != 0 {
		t.Fatalf("first batch warm-started %d times from its own entries; snapshot rule broken", got)
	}
	// Shifted boxes: exact keys miss, but every probe has a distance-`shift`
	// neighbour from batch one.
	out := s.SolveBatch(nearBatch(3, 6), 18)
	if got := nearHits(s); got == 0 {
		t.Fatal("second batch over neighbouring boxes produced no near hits")
	}
	for i, r := range out {
		if r.OK && !s.feasible(nearBatch(3, 6)[i], r.Sol.F) {
			t.Fatalf("probe %d: warm-started solution violates its box", i)
		}
	}
}

// TestNearStartsStandaloneSolveUntouched proves standalone Solve never
// near-warm-starts: with a populated cache, a fresh-box Solve matches the
// cold-path solver bit for bit and leaves the near-hit counter alone.
func TestNearStartsStandaloneSolveUntouched(t *testing.T) {
	warm := nearSolver(t, 7)
	warm.SolveBatch(nearBatch(0, 6), 17)
	cold := multiDimSolver(t, 7)
	co := solver.CO{Target: 0, Lo: []float64{0, 1}, Hi: []float64{471, 24}}
	a, okA := warm.Solve(co, 99)
	b, okB := cold.Solve(co, 99)
	if okA != okB {
		t.Fatalf("ok %v (warm cache) vs %v (cold)", okA, okB)
	}
	if got := nearHits(warm); got != 0 {
		t.Fatalf("standalone Solve recorded %d near hits", got)
	}
	for j := range a.F {
		if a.F[j] != b.F[j] {
			t.Fatalf("F[%d] %v != %v: standalone Solve was affected by the cache contents", j, a.F[j], b.F[j])
		}
	}
	for d := range a.X {
		if a.X[d] != b.X[d] {
			t.Fatalf("X[%d] %v != %v", d, a.X[d], b.X[d])
		}
	}
}

// TestNearStartsIndependentOfWorkers proves warm-started batches stay
// deterministic under scheduling: two sequential batches produce bit-equal
// results at GOMAXPROCS 1 and at 8, even though the second batch's starting
// points come from the cache.
func TestNearStartsIndependentOfWorkers(t *testing.T) {
	one := nearSolver(t, 7)
	eight := nearSolver(t, 7)
	for round, shift := range []float64{0, 3} {
		cos := nearBatch(shift, 6)
		a := solveBatchAt(1, one, cos, int64(17+round))
		b := solveBatchAt(8, eight, cos, int64(17+round))
		for i := range a {
			if a[i].OK != b[i].OK {
				t.Fatalf("round %d probe %d: ok %v (GOMAXPROCS 1) vs %v (8)", round, i, a[i].OK, b[i].OK)
			}
			if !a[i].OK {
				continue
			}
			for j := range a[i].Sol.F {
				if a[i].Sol.F[j] != b[i].Sol.F[j] {
					t.Fatalf("round %d probe %d: F[%d] %v != %v", round, i, j, a[i].Sol.F[j], b[i].Sol.F[j])
				}
			}
		}
	}
	if nearHits(one) != nearHits(eight) {
		t.Fatalf("near hits diverged: %d (GOMAXPROCS 1) vs %d (8)", nearHits(one), nearHits(eight))
	}
}

// TestBoxDistance pins the comparability rule: L1 over finite bounds, and a
// mismatched infinity pattern makes boxes incomparable.
func TestBoxDistance(t *testing.T) {
	inf := math.Inf(1)
	co := solver.CO{Target: 0, Lo: []float64{0, -inf}, Hi: []float64{10, inf}}
	if d, ok := boxDistance(co, []float64{2, -inf}, []float64{7, inf}); !ok || d != 5 {
		t.Fatalf("got d=%v ok=%v, want 5 true", d, ok)
	}
	if _, ok := boxDistance(co, []float64{2, 0}, []float64{7, inf}); ok {
		t.Fatal("finite lower bound compared against -inf should be incomparable")
	}
	if d, ok := boxDistance(co, []float64{0, -inf}, []float64{10, inf}); !ok || d != 0 {
		t.Fatalf("identical box: got d=%v ok=%v, want 0 true", d, ok)
	}
}
