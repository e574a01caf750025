package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Level gates how much the tracer records. Levels are ordered: everything
// recorded at LevelRun is also recorded at LevelVerbose.
type Level int32

// Trace levels.
const (
	// LevelOff records nothing.
	LevelOff Level = iota
	// LevelRun (the default) records unit-of-work events: PF probes and
	// expansions, MOGD solves, model trainings, HTTP requests. Roughly
	// hundreds of events per /optimize call — never per-iteration or
	// per-model-pass, so hot loops stay allocation-free.
	LevelRun
	// LevelVerbose additionally records per-start MOGD trajectories and
	// evaluator batches.
	LevelVerbose
)

// Event is one structured trace record. Attrs carry numeric measurements;
// Detail carries a short free-text qualifier (a workload name, a convergence
// reason). Events of one logical operation share a Run ID.
type Event struct {
	Seq    uint64             `json:"seq"`
	Time   time.Time          `json:"time"`
	Run    string             `json:"run,omitempty"`
	Scope  string             `json:"scope"`
	Name   string             `json:"name"`
	Detail string             `json:"detail,omitempty"`
	Dur    time.Duration      `json:"dur_ns,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`

	// Span and Parent link events into per-run timing trees (see span.go).
	// Span is the process-unique ID of the span this event closes; Parent is
	// the enclosing span's ID (0 = root). Events that are not span ends carry
	// Span == 0 and stay outside the timing tree.
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
}

// Tracer records events into a fixed-size ring buffer and, optionally, an
// append-only JSONL sink. Emission is gated by an atomic level check, so a
// disabled scope costs one atomic load and no allocations.
type Tracer struct {
	level   atomic.Int32
	spanSeq atomic.Uint64

	// mu guards the ring and seq, so ring order is Seq order.
	mu     sync.Mutex
	seq    uint64
	ring   []Event
	next   int
	filled bool

	sinkMu sync.Mutex
	sink   *json.Encoder
}

// DefaultTraceCapacity is the ring size used when NewTracer gets cap <= 0 —
// enough for several /optimize runs at LevelRun.
const DefaultTraceCapacity = 4096

// NewTracer builds a tracer with the given ring capacity (<= 0 uses
// DefaultTraceCapacity) at LevelRun.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	t := &Tracer{ring: make([]Event, capacity)}
	t.level.Store(int32(LevelRun))
	return t
}

// SetLevel changes the sampling level.
func (t *Tracer) SetLevel(l Level) {
	if t == nil {
		return
	}
	t.level.Store(int32(l))
}

// Enabled reports whether events at level l are being recorded. This is the
// hot-path guard: a single atomic load, no allocations.
func (t *Tracer) Enabled(l Level) bool {
	return t != nil && l != LevelOff && t.level.Load() >= int32(l)
}

// SetSink attaches an append-only JSONL writer (nil detaches). Every emitted
// event is encoded as one JSON line in addition to the ring buffer.
func (t *Tracer) SetSink(w io.Writer) {
	if t == nil {
		return
	}
	t.sinkMu.Lock()
	if w == nil {
		t.sink = nil
	} else {
		t.sink = json.NewEncoder(w)
	}
	t.sinkMu.Unlock()
}

// Emit records the event if level l is enabled, stamping sequence number and
// time. The passed event's Seq and Time fields are overwritten.
func (t *Tracer) Emit(l Level, e Event) {
	if !t.Enabled(l) {
		return
	}
	e.Time = time.Now()

	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.filled = true
	}
	t.mu.Unlock()

	t.sinkMu.Lock()
	if t.sink != nil {
		_ = t.sink.Encode(e)
	}
	t.sinkMu.Unlock()
}

// buffered returns the ring's live slots as two slices, oldest first: the
// events before the write cursor's wrap point, then the ones after it.
// Callers hold t.mu.
func (t *Tracer) buffered() [2][]Event {
	if t.filled {
		return [2][]Event{t.ring[t.next:], t.ring[:t.next]}
	}
	return [2][]Event{nil, t.ring[:t.next]}
}

// Events returns the buffered events in emission order, filtered to the
// given run ID ("" returns everything still in the ring), as a fresh slice
// the caller owns (nil when none match). It counts the run's events and
// copies them into an exact-size slice in one lock hold, so a read costs
// the run's own events, not a copy of the whole ring.
func (t *Tracer) Events(run string) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	segs := t.buffered()
	n := len(segs[0]) + len(segs[1])
	if run != "" {
		n = 0
		for _, seg := range segs {
			for i := range seg {
				if seg[i].Run == run {
					n++
				}
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]Event, 0, n)
	for _, seg := range segs {
		for i := range seg {
			if run == "" || seg[i].Run == run {
				out = append(out, seg[i])
			}
		}
	}
	return out
}

// Runs returns the distinct run IDs still present in the ring, oldest
// first. It reads the ring in place and copies no event.
func (t *Tracer) Runs() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for _, seg := range t.buffered() {
		for i := range seg {
			r := seg[i].Run
			if r == "" || seen[r] {
				continue
			}
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}
