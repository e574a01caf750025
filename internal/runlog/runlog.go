// Package runlog is the durable run registry of the serving layer: every
// /optimize call is captured end to end — the request, the resolved variable
// space, the returned frontier, frontier-quality metrics (hypervolume,
// coverage, consistency against the previous run of the same workload,
// uncertain-space fraction), evaluation counters and the telemetry trace run
// ID — and appended as one JSON line to a size-bounded, rotated JSONL file.
//
// The paper evaluates UDAO on frontier *quality* across incremental runs
// (§VI, Expt-1/2), and the online-tuning follow-ups to this line of work rest
// on a persistent history of tuning runs and their measured outcomes. The
// registry is that history layer: an in-memory index (by run ID, workload and
// time) over an append-only log that survives process restarts, including a
// half-written final record (the log is repaired to the last complete line on
// reopen).
//
// The log itself is a Journal, the package's generic durable JSONL log, which
// the calibration ledger (internal/calib) and the watchdog's alert log
// (internal/watch) share: rotated files replayed oldest-first on reopen,
// crash repair, monotonic "<prefix>-%06d" IDs across restarts, and a
// background writer behind a bounded queue. RotatingFile is its storage, and
// also carries the telemetry trace sink.
//
// Performance contract: Append computes quality metrics and updates the index
// synchronously (cheap: a 2D sweep or one bounded Monte Carlo pass over the
// frontier) but hands JSON encoding and the disk write to the journal's
// writer, so the solve hot path never waits on I/O.
package runlog

import (
	"math"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/objective"
)

// QualityUnknown is the sentinel stored for a quality measure that could not
// be computed (degenerate objective box, dimension mismatch against the
// previous run). JSON cannot carry NaN, so the registry maps NaN/Inf to it.
const QualityUnknown = -1

// FrontierPoint is one Pareto point of a recorded run. F is the
// minimization-oriented objective vector (the space all quality metrics are
// computed in); X is the encoded configuration achieving it.
type FrontierPoint struct {
	F []float64 `json:"f"`
	X []float64 `json:"x,omitempty"`
}

// SpaceInfo summarizes the resolved variable space of a run.
type SpaceInfo struct {
	Vars []string `json:"vars,omitempty"`
	Dim  int      `json:"dim"`
}

// StageInfo summarizes one stage of a pipeline run: the stage's name within
// the composite space, the workload whose models served it, and its sub-space
// shape.
type StageInfo struct {
	Name     string   `json:"name"`
	Workload string   `json:"workload,omitempty"`
	Vars     []string `json:"vars,omitempty"`
	Dim      int      `json:"dim"`
}

// Quality holds the frontier-quality metrics of one run, computed by the
// registry at Append time via internal/metrics. Consistency and
// HypervolumeDelta compare against the previous recorded run of the same
// workload with the same objective set (PrevRunID), measured in the
// [utopia, nadir] box spanned by both frontiers together. A value of
// QualityUnknown (-1) means the measure could not be computed.
type Quality struct {
	Hypervolume      float64 `json:"hypervolume"`
	Coverage         int     `json:"coverage"`
	Consistency      float64 `json:"consistency"`
	UncertainFrac    float64 `json:"uncertain_frac"`
	HypervolumeDelta float64 `json:"hypervolume_delta"`
	PrevRunID        string  `json:"prev_run_id,omitempty"`
}

// ExpandStep is one incremental Expand call of a run's Progressive Frontier
// computation (the §IV-A incremental mode), mirrored from core.Run's history.
type ExpandStep struct {
	Probes      int `json:"probes"`
	TotalProbes int `json:"total_probes"`
	Frontier    int `json:"frontier"`
	// Hypervolume after this step, in the box of every plan probed so far
	// (QualityUnknown while the box is degenerate).
	Hypervolume   float64 `json:"hypervolume"`
	UncertainFrac float64 `json:"uncertain_frac"`
	ElapsedSec    float64 `json:"elapsed_sec"`
}

// Record is one registry entry — everything needed to reconstruct what a
// single /optimize call was asked, what it answered, and how good the answer
// was. ID is assigned by the registry ("run-000001", monotonic across
// restarts); TraceRunID joins the record to the telemetry trace sink.
type Record struct {
	ID         string    `json:"id"`
	Time       time.Time `json:"time"`
	Workload   string    `json:"workload"`
	Objectives []string  `json:"objectives"`
	Weights    []float64 `json:"weights,omitempty"`
	Probes     int       `json:"probes"`
	Space      SpaceInfo `json:"space"`

	// Stages describes the pipeline structure of a stage-wise run (nil for
	// flat runs); Space then describes the concatenated composite space.
	Stages []StageInfo `json:"stages,omitempty"`
	// SharedKnobs is the request's shared-knob list for stage-wise runs —
	// together with Workload, Objectives and the stage workloads it lets the
	// serving cache rebuild the exact request key at warm-up.
	SharedKnobs []string `json:"shared_knobs,omitempty"`

	Frontier    []FrontierPoint    `json:"frontier"`
	Recommended map[string]float64 `json:"recommended,omitempty"`
	Objective   map[string]float64 `json:"objective_values,omitempty"`
	// StageRecommended is the per-stage view of the recommended configuration
	// for pipeline runs: StageRecommended[stage][knob], shared knobs repeated
	// in every stage they tie.
	StageRecommended map[string]map[string]float64 `json:"stage_recommended,omitempty"`

	// PredictedStd is the predictive standard deviation of each objective's
	// model at the recommended configuration (absent for exact objectives) —
	// what the calibration ledger judges uncertainty-interval coverage
	// against once the actual outcome is observed.
	PredictedStd map[string]float64 `json:"predicted_std,omitempty"`

	// Served says how the serving layer satisfied the request: "hit" (cached
	// frontier), "solve" (built and solved), "expand" (cached run resumed) or
	// "coalesced" (shared another request's in-flight solve) — distinguishes
	// cached from fresh recommendations in the ledger and in GET /runs.
	Served string `json:"served,omitempty"`

	Quality Quality `json:"quality"`

	Evals      uint64       `json:"evals"`
	MemoHits   uint64       `json:"memo_hits"`
	MemoMisses uint64       `json:"memo_misses"`
	SolveSec   float64      `json:"solve_sec"`
	Expands    []ExpandStep `json:"expands,omitempty"`

	TraceRunID string `json:"trace_run_id,omitempty"`

	// RootSpan is the span ID of this request's root span. Cached optimizers
	// keep one trace run ID across many requests; the root span ID is what
	// isolates this record's subtree in the shared event stream (span IDs are
	// process-unique and strictly increasing).
	RootSpan uint64 `json:"root_span,omitempty"`

	// PhaseBreakdown maps phase labels ("service", "pf", "mogd", "model",
	// "stage:<name>") to per-phase self time in seconds, computed
	// from the request's span subtree. Self times sum to approximately
	// SolveSec; absent when tracing was off for the run.
	PhaseBreakdown map[string]float64 `json:"phase_breakdown,omitempty"`
}

// Options tunes a registry. MaxBytes, Keep and Buffer size any Journal.
type Options struct {
	// MaxBytes bounds the active JSONL file; on overflow it rotates to
	// path.1 … path.Keep (<= 0 uses DefaultMaxBytes).
	MaxBytes int64
	// Keep is the number of rotated files retained (<= 0 uses DefaultKeep).
	Keep int
	// Buffer is the async write queue depth (<= 0 uses 256). A full queue
	// makes Append block until the worker drains — backpressure, not loss.
	Buffer int
	// Now is a test hook for record timestamps (nil uses time.Now).
	Now func() time.Time
}

// Registry is the durable run registry: an append-only rotated JSONL
// journal plus an in-memory index over every complete record. The embedded
// journal provides Err (the registry half of the service's readiness gate),
// Sync, Close and Path. Safe for concurrent use.
type Registry struct {
	*Journal[Record]
	now func() time.Time

	mu         sync.RWMutex
	byID       map[string]*Record
	order      []*Record            // append order (time order for live appends)
	byWorkload map[string][]*Record // same order, split per workload
}

func recordID(rec *Record) *string { return &rec.ID }

// Open loads the registry at path (rotated files oldest-first, then the
// active file), indexing every complete record, repairs a half-written final
// line, and starts the background writer.
func Open(path string, opts Options) (*Registry, error) {
	r := &Registry{
		now:        opts.Now,
		byID:       map[string]*Record{},
		byWorkload: map[string][]*Record{},
	}
	if r.now == nil {
		r.now = time.Now
	}
	j, err := OpenJournal(path, "run", opts, recordID, func(rec Record) { r.insertLocked(&rec) })
	if err != nil {
		return nil, err
	}
	r.Journal = j
	return r, nil
}

func (r *Registry) insertLocked(rec *Record) {
	r.byID[rec.ID] = rec
	r.order = append(r.order, rec)
	r.byWorkload[rec.Workload] = append(r.byWorkload[rec.Workload], rec)
}

// Append assigns an ID ("run-000001", monotonic across restarts) and a
// timestamp (if unset), computes the quality block against the previous run
// of the same workload, indexes the record, and queues it for the writer.
// The returned record carries the assigned ID and computed quality. The
// registry owns rec from the call on: the writer encodes it later, so the
// caller must not modify what it refers to. Encoding and disk errors surface
// asynchronously via Err; a closed registry rejects rec and leaves the index
// unchanged.
func (r *Registry) Append(rec Record) (Record, error) {
	err := r.Journal.Append(&rec, func(rec *Record) {
		r.mu.Lock()
		defer r.mu.Unlock()
		if rec.Time.IsZero() {
			rec.Time = r.now()
		}
		r.computeQualityLocked(rec)
		for i := range rec.Expands {
			rec.Expands[i].Hypervolume = sanitize(rec.Expands[i].Hypervolume)
			rec.Expands[i].UncertainFrac = sanitize(rec.Expands[i].UncertainFrac)
		}
		stored := *rec
		r.insertLocked(&stored)
	})
	return rec, err
}

// computeQualityLocked fills rec.Quality from the frontier and the previous
// record of the same workload+objectives. All measures are taken in the
// [utopia, nadir] box spanned by the union of both frontiers, so consecutive
// runs are compared on equal footing.
func (r *Registry) computeQualityLocked(rec *Record) {
	pts := frontierPoints(rec.Frontier)
	prev := r.prevComparableLocked(rec)
	all := pts
	var prevPts []objective.Point
	if prev != nil {
		prevPts = frontierPoints(prev.Frontier)
		all = append(append([]objective.Point{}, pts...), prevPts...)
	}
	q := &rec.Quality
	q.Hypervolume, q.Coverage, q.Consistency, q.HypervolumeDelta = QualityUnknown, 0, 0, 0
	if len(all) == 0 {
		return
	}
	utopia, nadir := objective.Bounds(all)
	q.Hypervolume = sanitize(metrics.Hypervolume(pts, utopia, nadir))
	q.Coverage = metrics.Coverage(pts, utopia, nadir)
	if prev != nil {
		q.PrevRunID = prev.ID
		q.Consistency = sanitize(metrics.Consistency(prevPts, pts, utopia, nadir))
		prevHV := metrics.Hypervolume(prevPts, utopia, nadir)
		if hv := q.Hypervolume; hv != QualityUnknown && !math.IsNaN(prevHV) {
			q.HypervolumeDelta = hv - prevHV
		} else {
			q.HypervolumeDelta = QualityUnknown
		}
	}
	q.UncertainFrac = sanitize(q.UncertainFrac)
}

// prevComparableLocked returns the latest indexed record of the same
// workload with the same objective set and frontier dimensionality.
func (r *Registry) prevComparableLocked(rec *Record) *Record {
	hist := r.byWorkload[rec.Workload]
	for i := len(hist) - 1; i >= 0; i-- {
		p := hist[i]
		if sameObjectives(p.Objectives, rec.Objectives) {
			return p
		}
	}
	return nil
}

func sameObjectives(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func frontierPoints(fps []FrontierPoint) []objective.Point {
	out := make([]objective.Point, 0, len(fps))
	for _, fp := range fps {
		if len(fp.F) > 0 {
			out = append(out, objective.Point(fp.F))
		}
	}
	return out
}

// sanitize maps NaN/Inf (the metrics package's degenerate-box sentinels) to
// QualityUnknown so records always marshal to valid JSON.
func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return QualityUnknown
	}
	return v
}

// Get returns the record with the given ID.
func (r *Registry) Get(id string) (Record, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.byID[id]
	if !ok {
		return Record{}, false
	}
	return *rec, true
}

// List returns records in append order, optionally filtered to a workload
// and to Time >= since, keeping only the most recent `limit` (limit <= 0
// returns all matches).
func (r *Registry) List(workload string, since time.Time, limit int) []Record {
	r.mu.RLock()
	src := r.order
	if workload != "" {
		src = r.byWorkload[workload]
	}
	out := make([]Record, 0, len(src))
	for _, rec := range src {
		if !since.IsZero() && rec.Time.Before(since) {
			continue
		}
		out = append(out, *rec)
	}
	r.mu.RUnlock()
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Len returns the number of indexed records.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.order)
}

// Load reads every complete record from the registry files at path (rotated
// oldest-first, then the active file) without opening them for writing —
// the offline access path used by udao-traceview. A missing active file with
// no rotated siblings is an error.
func Load(path string) ([]Record, error) { return LoadJournal(path, recordID) }
