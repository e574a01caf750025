package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTracerLevelsAndRing(t *testing.T) {
	tr := NewTracer(4)
	if !tr.Enabled(LevelRun) || tr.Enabled(LevelVerbose) {
		t.Fatal("default level should be LevelRun")
	}
	tr.Emit(LevelVerbose, Event{Scope: "x", Name: "dropped"})
	if got := len(tr.Events("")); got != 0 {
		t.Fatalf("verbose event recorded at LevelRun: %d events", got)
	}

	for i := 0; i < 6; i++ { // overflow the 4-slot ring
		tr.Emit(LevelRun, Event{Run: "r1", Scope: "pf", Name: "probe", Attrs: map[string]float64{"i": float64(i)}})
	}
	evs := tr.Events("")
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(evs))
	}
	// Oldest events were evicted; order is preserved.
	if evs[0].Attrs["i"] != 2 || evs[3].Attrs["i"] != 5 {
		t.Fatalf("ring order wrong: first=%v last=%v", evs[0].Attrs["i"], evs[3].Attrs["i"])
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatal("sequence numbers not increasing")
		}
	}

	tr.SetLevel(LevelOff)
	tr.Emit(LevelRun, Event{Scope: "pf", Name: "probe"})
	if len(tr.Events("")) != 4 {
		t.Fatal("LevelOff still recorded")
	}
}

func TestTracerRunFilterAndRuns(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(LevelRun, Event{Run: "a", Scope: "pf", Name: "probe"})
	tr.Emit(LevelRun, Event{Run: "b", Scope: "mogd", Name: "solve"})
	tr.Emit(LevelRun, Event{Run: "a", Scope: "pf", Name: "expand"})
	tr.Emit(LevelRun, Event{Scope: "http", Name: "request"}) // no run

	if evs := tr.Events("a"); len(evs) != 2 || evs[0].Name != "probe" || evs[1].Name != "expand" {
		t.Fatalf("run filter wrong: %+v", evs)
	}
	runs := tr.Runs()
	if len(runs) != 2 || runs[0] != "a" || runs[1] != "b" {
		t.Fatalf("runs = %v", runs)
	}
}

func TestTracerJSONLSink(t *testing.T) {
	tr := NewTracer(16)
	var buf bytes.Buffer
	tr.SetSink(&buf)
	tr.Emit(LevelRun, Event{Run: "r", Scope: "mogd", Name: "solve", Detail: "feasible", Dur: 5 * time.Millisecond, Attrs: map[string]float64{"starts": 8}})
	tr.Emit(LevelRun, Event{Run: "r", Scope: "pf", Name: "probe"})
	tr.SetSink(nil)
	tr.Emit(LevelRun, Event{Run: "r", Scope: "pf", Name: "after-detach"})

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink got %d lines, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line not JSON: %v", err)
	}
	if e.Run != "r" || e.Scope != "mogd" || e.Detail != "feasible" || e.Attrs["starts"] != 8 {
		t.Fatalf("decoded event = %+v", e)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled(LevelRun) {
		t.Fatal("nil tracer enabled")
	}
	tr.Emit(LevelRun, Event{})
	tr.SetLevel(LevelVerbose)
	tr.SetSink(nil)
	if tr.Events("") != nil || tr.Events("r") != nil || tr.Runs() != nil || tr.Enabled(LevelVerbose) {
		t.Fatal("nil tracer should be inert")
	}
}

// eventsRef is the read Events replaced: copy every live ring slot in
// emission order, then filter the copy by run. The reference model the
// single-pass read must agree with.
func eventsRef(t *Tracer, run string) []Event {
	t.mu.Lock()
	var ordered []Event
	if t.filled {
		ordered = append(ordered, t.ring[t.next:]...)
		ordered = append(ordered, t.ring[:t.next]...)
	} else {
		ordered = append(ordered, t.ring[:t.next]...)
	}
	t.mu.Unlock()
	if run == "" {
		return ordered
	}
	out := ordered[:0]
	for _, e := range ordered {
		if e.Run == run {
			out = append(out, e)
		}
	}
	return out
}

// runsRef lists the distinct runs of eventsRef's full copy, oldest first.
func runsRef(t *Tracer) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range eventsRef(t, "") {
		if e.Run == "" || seen[e.Run] {
			continue
		}
		seen[e.Run] = true
		out = append(out, e.Run)
	}
	return out
}

func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestTracerMatchesReference: over small rings and random emission
// sequences that wrap them, with run-less events and events at a level the
// tracer drops, Events and Runs return exactly what the copy-then-filter
// reference returns.
func TestTracerMatchesReference(t *testing.T) {
	runs := []string{"", "a", "b", "req-1", "req-22"}
	rng := rand.New(rand.NewSource(1))
	for capacity := 1; capacity <= 64; capacity++ {
		for trial := 0; trial < 4; trial++ {
			tr := NewTracer(capacity)
			emits := rng.Intn(3*capacity + 2)
			for i := 0; i < emits; i++ {
				l := LevelRun
				if rng.Intn(5) == 0 {
					l = LevelVerbose
				}
				tr.Emit(l, Event{Run: runs[rng.Intn(len(runs))], Scope: "s", Name: fmt.Sprint(i)})
				if rng.Intn(4) != 0 && i != emits-1 {
					continue
				}
				for _, r := range append(runs, "absent") {
					if got, want := tr.Events(r), eventsRef(tr, r); !sameEvents(got, want) {
						t.Fatalf("cap %d after %d emits: Events(%q) = %+v, want %+v", capacity, i+1, r, got, want)
					}
				}
				if got, want := tr.Runs(), runsRef(tr); !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d after %d emits: Runs() = %v, want %v", capacity, i+1, got, want)
				}
			}
		}
	}
}

// fillHotHits fills tr's ring the way a server answering repeat requests
// for three keys does: each request emits its HTTP event under its own
// req-N run and then one event under the run that solved its key.
func fillHotHits(tr *Tracer) {
	for i := 0; i < len(tr.ring); i += 2 {
		tr.Emit(LevelRun, Event{Run: fmt.Sprintf("req-%d", i/2), Scope: "http", Name: "request"})
		tr.Emit(LevelRun, Event{Run: fmt.Sprintf("opt-%d", (i/2)%3), Scope: "service", Name: "optimize", Span: uint64(i + 1)})
	}
}

// TestTracerEventsAllocations: on a full ring, reading one run allocates
// once, an exact-size slice the caller owns.
func TestTracerEventsAllocations(t *testing.T) {
	tr := NewTracer(0)
	fillHotHits(tr)
	var evs []Event
	allocs := testing.AllocsPerRun(20, func() { evs = tr.Events("opt-1") })
	if allocs != 1 {
		t.Fatalf("Events(run) allocates %v times, want 1", allocs)
	}
	if want := len(eventsRef(tr, "opt-1")); len(evs) != want || cap(evs) != len(evs) {
		t.Fatalf("Events(run) len %d cap %d, want len %d and cap == len", len(evs), cap(evs), want)
	}
	// The slice is the caller's: writing it leaves the ring alone.
	evs[0].Run = "scribbled"
	if again := tr.Events("opt-1"); again[0].Run != "opt-1" || len(again) != len(evs) {
		t.Fatalf("writing a returned slice changed the ring: %+v", again[0])
	}
}

// TestTracerEventsConcurrent: under concurrent Emit, each read returns only
// the asked run's events, in the order its goroutine emitted them.
func TestTracerEventsConcurrent(t *testing.T) {
	tr := NewTracer(256)
	const writers, perWriter = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(run string) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr.Emit(LevelRun, Event{Run: run, Scope: "s", Name: "e"})
				if i%7 == 0 {
					tr.Emit(LevelRun, Event{Scope: "http", Name: "request"})
				}
			}
		}(fmt.Sprintf("run-%d", w))
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for reads := 0; ; reads++ {
		select {
		case <-done:
			return
		default:
		}
		run := fmt.Sprintf("run-%d", reads%writers)
		evs := tr.Events(run)
		for i, e := range evs {
			if e.Run != run {
				t.Fatalf("Events(%q) returned an event of run %q", run, e.Run)
			}
			if i > 0 && e.Seq <= evs[i-1].Seq {
				t.Fatalf("Events(%q) out of order: seq %d after %d", run, e.Seq, evs[i-1].Seq)
			}
		}
		_ = tr.Runs()
	}
}

// TestTracerSeqMatchesRingOrder: events from emitters racing on the ring
// land in strictly increasing Seq order.
func TestTracerSeqMatchesRingOrder(t *testing.T) {
	const writers, perWriter = 4, 10000
	tr := NewTracer(writers * perWriter)
	var ready, wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		ready.Add(1)
		wg.Add(1)
		go func(run string) {
			defer wg.Done()
			ready.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				tr.Emit(LevelRun, Event{Run: run, Scope: "s", Name: "e"})
			}
		}(fmt.Sprintf("run-%d", w))
	}
	ready.Wait()
	close(start)
	wg.Wait()
	evs := tr.Events("")
	if len(evs) != writers*perWriter {
		t.Fatalf("ring holds %d events, want %d", len(evs), writers*perWriter)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("ring slot %d has seq %d after %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// BenchmarkTracerEvents reads one run's events from a full default ring
// filled like a server's under repeat requests: the read every /optimize
// makes twice.
func BenchmarkTracerEvents(b *testing.B) {
	tr := NewTracer(0)
	fillHotHits(tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tr.Events("opt-1")) == 0 {
			b.Fatal("no events")
		}
	}
}
