package core

import (
	"math"
	"testing"

	"repro/internal/objective"
)

// TestQueueVolumeCacheConsistency drives push/pop through a realistic
// subdivision sequence and checks the incrementally maintained queueVol
// against a fresh heap re-sum at every step — the invariant report() and
// Run.UncertainFrac now rely on.
func TestQueueVolumeCacheConsistency(t *testing.T) {
	r := &Run{initVol: 1}
	check := func(stage string) {
		t.Helper()
		want := r.queue.totalVolume()
		if math.Abs(r.queueVol-want) > 1e-12*math.Max(1, want) {
			t.Fatalf("%s: cached queueVol %v, heap sum %v", stage, r.queueVol, want)
		}
	}
	root := objective.Rect{Utopia: objective.Point{0, 0}, Nadir: objective.Point{1, 1}}
	r.initVol = root.Volume()
	r.push(root)
	check("after initial push")
	// Repeatedly pop the largest rectangle and subdivide it at an interior
	// point, pushing the fragments back (the PF-S inner loop shape).
	for step := 0; step < 25 && r.queue.Len() > 0; step++ {
		it := r.pop()
		check("after pop")
		mid := make(objective.Point, len(it.rect.Utopia))
		for d := range mid {
			// An off-center split keeps fragment volumes distinct.
			mid[d] = it.rect.Utopia[d] + 0.37*(it.rect.Nadir[d]-it.rect.Utopia[d])
		}
		for _, sub := range it.rect.Subdivide(mid) {
			r.push(sub)
			check("after push")
		}
	}
	// Drain completely: the cache must land on exactly zero.
	for r.queue.Len() > 0 {
		r.pop()
	}
	if r.queueVol != 0 {
		t.Fatalf("drained queue left cached volume %v, want exactly 0", r.queueVol)
	}
}
