package telemetry

import (
	"cmp"
	"slices"
	"time"
)

// Span is a lightweight handle for one timed region of a solve. Spans are
// value types: StartSpan allocates nothing, and End emits a single Event
// carrying the span's ID, its parent's ID and the measured duration — so the
// existing ring buffer and JSONL sink double as the span store, and the
// hot-path cost of an instrumented region is one atomic load (disabled) or
// one ring write (enabled, 0 allocs/op when Attrs is nil).
//
// Span IDs are process-unique and strictly increasing (a child's ID is always
// greater than its parent's), which lets readers carve one request's subtree
// out of a run that spans several requests.
type Span struct {
	tracer *Tracer
	level  Level
	run    string
	scope  string
	name   string
	id     uint64
	parent uint64
	start  time.Time
}

// StartSpan opens a span under the given parent ID (0 = root). If level l is
// not enabled the returned span is inert: ID() is 0 and End is a no-op, so
// callers never branch on the trace level themselves.
func (t *Tracer) StartSpan(l Level, run string, parent uint64, scope, name string) Span {
	if !t.Enabled(l) {
		return Span{}
	}
	return Span{
		tracer: t,
		level:  l,
		run:    run,
		scope:  scope,
		name:   name,
		id:     t.spanSeq.Add(1),
		parent: parent,
		start:  time.Now(),
	}
}

// ID returns the span's process-unique identifier, or 0 for an inert span.
// Pass it as the parent argument of StartSpan to nest.
func (s Span) ID() uint64 { return s.id }

// Recording reports whether the span was actually opened (the tracer level
// was enabled at StartSpan time).
func (s Span) Recording() bool { return s.id != 0 }

// End closes the span, emitting one Event with the measured duration. Detail
// and attrs follow the Event conventions; attrs may be nil (the common case —
// then End allocates nothing beyond the ring write).
func (s Span) End(detail string, attrs map[string]float64) {
	if s.id == 0 {
		return
	}
	s.tracer.Emit(s.level, Event{
		Run:    s.run,
		Scope:  s.scope,
		Name:   s.name,
		Detail: detail,
		Dur:    time.Since(s.start),
		Attrs:  attrs,
		Span:   s.id,
		Parent: s.parent,
	})
}

// PhaseTime is one row of a per-phase breakdown.
type PhaseTime struct {
	Phase string // trace scope ("service", "pf", "mogd", ...)
	Spans int    // number of spans aggregated into this row
	// Total is busy time: the summed durations of the row's spans, inclusive
	// of their children. Concurrent spans each count in full, so Totals may
	// exceed wall time.
	Total time.Duration
	// Self is wall-attributed time: the instants of the root span during
	// which one of the row's spans was the deepest active span. Self times
	// partition the root interval, so they sum to its duration exactly.
	Self time.Duration
}

// PhaseBreakdown computes per-phase wall-attributed and busy times from
// span-carrying events.
//
// Every instant of a root span's interval is attributed to exactly one span:
// the deepest span of its tree active at that instant, ties going to the
// lowest span ID. A span's Self is the time attributed to it; child spans are
// clipped to the root's interval against timing skew. So the Self times of a
// tree sum to exactly the root span's duration even when children overlap —
// PF-AP's concurrent MOGD solves, the evaluator's batch workers — which makes
// the breakdown comparable to the run's recorded wall time. Total stays the
// summed busy time.
//
// If root is nonzero only the subtree below (and including) that span ID is
// aggregated — the way to isolate one request when a cached optimizer's run
// ID spans several. Span IDs increase from parent to child, so only events
// with IDs at or above root are gathered: a request whose subtree is just
// its root (a cache hit) allocates nothing for the run's earlier events.
// With root == 0 every span tree in events is aggregated and the returned
// total is the summed duration of their roots (spans whose parent is absent).
//
// Returns the per-phase rows (sorted by descending self time, ties by phase
// name) and the wall-clock total the self times sum to.
func PhaseBreakdown(events []Event, root uint64) ([]PhaseTime, time.Duration) {
	var nodes []spanNode
	for _, e := range events {
		if e.Span == 0 || e.Dur <= 0 || e.Span < root {
			continue
		}
		nodes = append(nodes, spanNode{
			id: e.Span, parent: e.Parent, phase: PhaseKey(e.Scope, e.Name),
			start: e.Time.Add(-e.Dur), end: e.Time, tree: -1,
		})
	}
	slices.SortFunc(nodes, func(a, b spanNode) int { return cmp.Compare(a.id, b.id) })

	// Resolve tree membership and depth in ID order: a parent always precedes
	// its children.
	var rows []PhaseTime
	var total time.Duration
	for i := range nodes {
		n := &nodes[i]
		if i > 0 && n.id == nodes[i-1].id {
			continue // a duplicated event; the first copy stands
		}
		p := -1
		if n.parent != 0 && n.parent != n.id {
			if j, ok := slices.BinarySearchFunc(nodes[:i], n.parent, func(a spanNode, id uint64) int {
				return cmp.Compare(a.id, id)
			}); ok && nodes[j].tree >= 0 {
				p = j
			}
		}
		switch {
		case root != 0 && n.id == root, root == 0 && p < 0:
			n.tree = i
			total += n.end.Sub(n.start)
		case p >= 0 && n.id != root:
			n.tree, n.depth = nodes[p].tree, nodes[p].depth+1
		default:
			continue
		}
		r := phaseRow(&rows, n.phase)
		r.Spans++
		r.Total += n.end.Sub(n.start)
	}
	if len(rows) == 0 {
		return nil, 0
	}
	attributeWall(nodes, rows)

	slices.SortFunc(rows, func(a, b PhaseTime) int {
		if c := cmp.Compare(b.Self, a.Self); c != 0 {
			return c
		}
		return cmp.Compare(a.Phase, b.Phase)
	})
	return rows, total
}

// PhaseKey maps a span's (scope, name) to its phase label. Phases follow the
// trace scope ("service", "pf", "mogd", "eval", "model"), except the "stage"
// scope of pipeline requests, which stays broken out per stage name
// ("stage:etl") so a pipeline run's breakdown shows each stage's share.
func PhaseKey(scope, name string) string {
	if scope == "stage" && name != "" {
		return scope + ":" + name
	}
	return scope
}

// spanNode is one span of a breakdown. tree is the index of its tree's root
// in the ID-sorted node list (-1 outside every aggregated tree) and depth its
// distance from that root.
type spanNode struct {
	id, parent uint64
	phase      string
	start, end time.Time
	tree       int
	depth      int
}

// phaseRow returns the row of phase, appending it when new. Requests have a
// handful of phases, so a linear scan beats a map.
func phaseRow(rows *[]PhaseTime, phase string) *PhaseTime {
	for i := range *rows {
		if (*rows)[i].Phase == phase {
			return &(*rows)[i]
		}
	}
	*rows = append(*rows, PhaseTime{Phase: phase})
	return &(*rows)[len(*rows)-1]
}

// spanEdge is a span opening or closing at offset at from its tree root's
// start.
type spanEdge struct {
	tree, node int
	at         time.Duration
	open       bool
}

// attributeWall sweeps each tree's span edges in time order and adds every
// elementary segment to the Self of the deepest open span.
func attributeWall(nodes []spanNode, rows []PhaseTime) {
	var edges []spanEdge
	for i := range nodes {
		n := &nodes[i]
		if n.tree < 0 {
			continue
		}
		rt := &nodes[n.tree]
		lo, hi := n.start.Sub(rt.start), n.end.Sub(rt.start)
		lo, hi = max(lo, 0), min(hi, rt.end.Sub(rt.start))
		if hi > lo {
			edges = append(edges, spanEdge{n.tree, i, lo, true}, spanEdge{n.tree, i, hi, false})
		}
	}
	// Edges at one instant may come in any order: only the state after the
	// last of them opens a segment.
	slices.SortFunc(edges, func(a, b spanEdge) int {
		if c := cmp.Compare(a.tree, b.tree); c != 0 {
			return c
		}
		return cmp.Compare(a.at, b.at)
	})
	// open lists the open spans deepest first, ties by node index (which
	// follows span ID). Only a request's concurrently open spans are in it,
	// a handful even for PF-AP, so a sorted slice beats a heap.
	var open []int
	for k, e := range edges {
		if e.open {
			at := slices.IndexFunc(open, func(o int) bool {
				return nodes[e.node].depth > nodes[o].depth ||
					nodes[e.node].depth == nodes[o].depth && e.node < o
			})
			if at < 0 {
				at = len(open)
			}
			open = slices.Insert(open, at, e.node)
		} else {
			at := slices.Index(open, e.node)
			open = slices.Delete(open, at, at+1)
		}
		if k+1 == len(edges) || edges[k+1].tree != e.tree {
			open = open[:0]
			continue
		}
		if seg := edges[k+1].at - e.at; seg > 0 {
			phaseRow(&rows, nodes[open[0]].phase).Self += seg
		}
	}
}
