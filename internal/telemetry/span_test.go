package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSpanBasics: a root with two sequential children produces a tree whose
// self times sum to the root duration.
func TestSpanBasics(t *testing.T) {
	tr := NewTracer(64)
	root := tr.StartSpan(LevelRun, "r1", 0, "service", "optimize")
	if !root.Recording() || root.ID() == 0 {
		t.Fatal("root span not recording")
	}
	c1 := tr.StartSpan(LevelRun, "r1", root.ID(), "pf", "expand")
	time.Sleep(2 * time.Millisecond)
	c1.End("", nil)
	c2 := tr.StartSpan(LevelRun, "r1", root.ID(), "mogd", "solve")
	time.Sleep(2 * time.Millisecond)
	c2.End("converged", map[string]float64{"iters": 3})
	time.Sleep(time.Millisecond)
	root.End("", nil)

	events := tr.Events("r1")
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	rows, total := PhaseBreakdown(events, root.ID())
	if total <= 0 {
		t.Fatalf("total = %v", total)
	}
	var sum time.Duration
	byPhase := map[string]PhaseTime{}
	for _, r := range rows {
		sum += r.Self
		byPhase[r.Phase] = r
	}
	if d := sum - total; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("self sum %v vs total %v", sum, total)
	}
	if byPhase["pf"].Self < time.Millisecond || byPhase["mogd"].Self < time.Millisecond {
		t.Fatalf("child self times: %+v", byPhase)
	}
	if byPhase["service"].Total < byPhase["service"].Self {
		t.Fatalf("service total < self: %+v", byPhase["service"])
	}
}

// TestSpanDisabled: an off tracer yields inert spans end to end.
func TestSpanDisabled(t *testing.T) {
	tr := NewTracer(8)
	tr.SetLevel(LevelOff)
	sp := tr.StartSpan(LevelRun, "r", 0, "s", "n")
	if sp.Recording() || sp.ID() != 0 {
		t.Fatal("span recording on an off tracer")
	}
	sp.End("", nil) // must be a no-op
	if got := len(tr.Events("")); got != 0 {
		t.Fatalf("events = %d, want 0", got)
	}
	var nilTracer *Tracer
	nsp := nilTracer.StartSpan(LevelRun, "r", 0, "s", "n")
	nsp.End("", nil)

	// Verbose spans are gated below the verbose level too.
	tr2 := NewTracer(8)
	vsp := tr2.StartSpan(LevelVerbose, "r", 0, "s", "n")
	if vsp.Recording() {
		t.Fatal("verbose span recorded at LevelRun")
	}
}

// TestSpanConcurrentTrees: many goroutines build span trees concurrently in
// one tracer (the shape of concurrent /optimize calls). Every tree must come
// back well-formed and non-interleaved: all parents resolvable within the
// same run, child IDs greater than parent IDs, and the per-run breakdown
// summing to the per-run root duration. Run under -race.
func TestSpanConcurrentTrees(t *testing.T) {
	tr := NewTracer(8192)
	const goroutines, children = 16, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			run := fmt.Sprintf("run-%d", g)
			root := tr.StartSpan(LevelRun, run, 0, "service", "optimize")
			for c := 0; c < children; c++ {
				child := tr.StartSpan(LevelRun, run, root.ID(), "mogd", "solve")
				leaf := tr.StartSpan(LevelRun, run, child.ID(), "eval", "batch")
				leaf.End("", nil)
				child.End("", nil)
			}
			root.End("", nil)
		}(g)
	}
	wg.Wait()

	for g := 0; g < goroutines; g++ {
		run := fmt.Sprintf("run-%d", g)
		events := tr.Events(run)
		if len(events) != 2*children+1 {
			t.Fatalf("%s: events = %d, want %d", run, len(events), 2*children+1)
		}
		ids := map[uint64]uint64{} // span -> parent
		var rootID uint64
		for _, e := range events {
			if e.Span == 0 {
				t.Fatalf("%s: event without span ID: %+v", run, e)
			}
			ids[e.Span] = e.Parent
			if e.Parent == 0 {
				rootID = e.Span
			}
		}
		if rootID == 0 {
			t.Fatalf("%s: no root span", run)
		}
		for span, parent := range ids {
			if parent == 0 {
				continue
			}
			if _, ok := ids[parent]; !ok {
				t.Fatalf("%s: span %d has foreign parent %d", run, span, parent)
			}
			if span <= parent {
				t.Fatalf("%s: span %d not greater than parent %d", run, span, parent)
			}
		}
		rows, total := PhaseBreakdown(events, rootID)
		var sum time.Duration
		for _, r := range rows {
			sum += r.Self
		}
		if total <= 0 || sum <= 0 {
			t.Fatalf("%s: degenerate breakdown total=%v sum=%v", run, total, sum)
		}
		if diff := sum - total; diff < -total/10 || diff > total/10 {
			t.Fatalf("%s: self sum %v vs total %v", run, sum, total)
		}
	}
}

// TestPhaseBreakdownSubtree: with a reused run ID (cached optimizer), passing
// the root span ID isolates one request's subtree.
func TestPhaseBreakdownSubtree(t *testing.T) {
	tr := NewTracer(64)
	// Request 1.
	r1 := tr.StartSpan(LevelRun, "opt-1", 0, "service", "optimize")
	c1 := tr.StartSpan(LevelRun, "opt-1", r1.ID(), "pf", "expand")
	c1.End("", nil)
	r1.End("", nil)
	// Request 2, same run ID.
	r2 := tr.StartSpan(LevelRun, "opt-1", 0, "service", "optimize")
	c2 := tr.StartSpan(LevelRun, "opt-1", r2.ID(), "mogd", "solve")
	c2.End("", nil)
	r2.End("", nil)

	events := tr.Events("opt-1")
	rows, _ := PhaseBreakdown(events, r2.ID())
	for _, r := range rows {
		if r.Phase == "pf" {
			t.Fatalf("request-1 phase leaked into request-2 subtree: %+v", rows)
		}
	}
	var sawMOGD bool
	for _, r := range rows {
		if r.Phase == "mogd" {
			sawMOGD = true
		}
	}
	if !sawMOGD {
		t.Fatalf("mogd phase missing from subtree: %+v", rows)
	}

	// root == 0 aggregates both requests.
	all, total := PhaseBreakdown(events, 0)
	if len(all) != 3 {
		t.Fatalf("full aggregation rows = %d, want 3 (%+v)", len(all), all)
	}
	if total <= 0 {
		t.Fatalf("total = %v", total)
	}
}

// TestSpanParallelChildrenCoverage: overlapping children (parallel solves)
// must not drive the parent's self time negative or double-count.
func TestSpanParallelChildrenCoverage(t *testing.T) {
	base := time.Unix(1700000000, 0)
	mk := func(span, parent uint64, scope string, start, end time.Duration) Event {
		return Event{Span: span, Parent: parent, Scope: scope,
			Time: base.Add(end), Dur: end - start}
	}
	events := []Event{
		mk(1, 0, "service", 0, 100*time.Millisecond),
		// Two fully overlapping children: coverage is 40ms, not 80ms.
		mk(2, 1, "mogd", 10*time.Millisecond, 50*time.Millisecond),
		mk(3, 1, "mogd", 10*time.Millisecond, 50*time.Millisecond),
	}
	rows, total := PhaseBreakdown(events, 1)
	if total != 100*time.Millisecond {
		t.Fatalf("total = %v", total)
	}
	byPhase := map[string]PhaseTime{}
	for _, r := range rows {
		byPhase[r.Phase] = r
	}
	if got := byPhase["service"].Self; got != 60*time.Millisecond {
		t.Fatalf("service self = %v, want 60ms", got)
	}
	if got := byPhase["mogd"].Total; got != 80*time.Millisecond {
		t.Fatalf("mogd total = %v, want 80ms", got)
	}
}

// TestPhaseBreakdownDeepestWins: overlapping siblings at different depths.
// Every instant of the root goes to the deepest open span (ties to the lower
// span ID), so Self times partition the root interval exactly while Total
// stays the busy time, which exceeds it.
func TestPhaseBreakdownDeepestWins(t *testing.T) {
	base := time.Unix(1700000000, 0)
	ms := time.Millisecond
	mk := func(span, parent uint64, scope string, start, end time.Duration) Event {
		return Event{Span: span, Parent: parent, Scope: scope,
			Time: base.Add(end * ms), Dur: (end - start) * ms}
	}
	events := []Event{
		mk(7, 4, "eval", 25, 35),  // depth 3, inside solve 4
		mk(4, 2, "mogd", 20, 40),  // depth 2
		mk(5, 2, "mogd", 30, 60),  // depth 2, overlaps 4 and model 3
		mk(6, 3, "eval", 80, 95),  // depth 2, outlives its parent
		mk(2, 1, "pf", 10, 70),    // depth 1
		mk(3, 1, "model", 50, 90), // depth 1, overlaps pf
		mk(1, 0, "service", 0, 100),
	}
	rows, total := PhaseBreakdown(events, 1)
	if total != 100*ms {
		t.Fatalf("total = %v, want 100ms", total)
	}
	want := map[string]struct {
		spans       int
		self, total time.Duration
	}{
		// service: [0,10) + [95,100)
		"service": {1, 15 * ms, 100 * ms},
		// pf: [10,20) + [60,70), where it ties model 3 at depth 1 and has
		// the lower ID
		"pf": {1, 20 * ms, 60 * ms},
		// mogd: 4 over [20,25) and [35,40) (tie with 5), 5 over [40,60)
		"mogd": {2, 30 * ms, 50 * ms},
		// eval: 7 over [25,35), 6 over [80,95)
		"eval":  {2, 25 * ms, 25 * ms},
		"model": {1, 10 * ms, 40 * ms},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v", rows)
	}
	var sum, busy time.Duration
	for _, r := range rows {
		w, ok := want[r.Phase]
		if !ok || r.Spans != w.spans || r.Self != w.self || r.Total != w.total {
			t.Errorf("%s: got spans %d self %v total %v, want %+v", r.Phase, r.Spans, r.Self, r.Total, w)
		}
		sum += r.Self
		busy += r.Total
	}
	if sum != total {
		t.Fatalf("self sum %v != total %v", sum, total)
	}
	if busy <= total {
		t.Fatalf("busy %v should exceed wall %v with overlapping spans", busy, total)
	}
	if rows[0].Phase != "mogd" {
		t.Fatalf("rows not sorted by self time: %+v", rows)
	}

	// With root == 0 the same tree is found through its parentless root.
	all, allTotal := PhaseBreakdown(events, 0)
	if allTotal != total || len(all) != len(rows) {
		t.Fatalf("root 0: total %v rows %+v", allTotal, all)
	}
	for i := range all {
		if all[i] != rows[i] {
			t.Fatalf("root 0 row %d = %+v, want %+v", i, all[i], rows[i])
		}
	}
}

// TestPhaseBreakdownHitAllocations: a request whose subtree is just its root
// (a cache hit) pays no allocation per earlier event of its run.
func TestPhaseBreakdownHitAllocations(t *testing.T) {
	base := time.Unix(1700000000, 0)
	run := func(earlier int) []Event {
		var events []Event
		for i := 1; i <= earlier; i++ {
			events = append(events, Event{Span: uint64(i), Parent: 1, Scope: "mogd",
				Time: base.Add(time.Duration(i) * time.Millisecond), Dur: time.Millisecond})
		}
		return append(events, Event{Span: uint64(earlier + 1), Scope: "service",
			Time: base.Add(time.Hour), Dur: time.Millisecond})
	}
	allocs := func(events []Event) float64 {
		root := events[len(events)-1].Span
		return testing.AllocsPerRun(20, func() {
			rows, total := PhaseBreakdown(events, root)
			if len(rows) != 1 || rows[0].Self != total {
				t.Fatalf("hit breakdown = %+v, %v", rows, total)
			}
		})
	}
	if few, many := allocs(run(4)), allocs(run(4000)); many != few {
		t.Fatalf("allocs grow with the run's earlier events: %v (4) vs %v (4000)", few, many)
	}
}

// TestSpanZeroAlloc: the enabled-span fast path (no attrs, ring only) must
// not allocate — the contract that lets spans sit on the solver hot path.
func TestSpanZeroAlloc(t *testing.T) {
	tr := NewTracer(1024)
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.StartSpan(LevelRun, "run-z", 0, "mogd", "solve")
		sp.End("", nil)
	})
	if allocs != 0 {
		t.Fatalf("span start/end allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkSpanStartEnd measures the enabled-span hot path (tracked in
// BENCH_solver.json: must stay 0 allocs/op).
func BenchmarkSpanStartEnd(b *testing.B) {
	tr := NewTracer(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(LevelRun, "run-b", 0, "mogd", "solve")
		sp.End("", nil)
	}
}

// BenchmarkSpanStartEndOff measures the disabled path — the cost every
// instrumented region pays when tracing is off (one atomic load).
func BenchmarkSpanStartEndOff(b *testing.B) {
	tr := NewTracer(16)
	tr.SetLevel(LevelOff)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.StartSpan(LevelRun, "run-b", 0, "mogd", "solve")
		sp.End("", nil)
	}
}
