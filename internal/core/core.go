// Package core implements the paper's primary contribution: the Progressive
// Frontier (PF) approach to multi-objective optimization (§III, §IV).
//
// The three published variants are one loop, NewRun(s, parallel,
// opt).Expand(probes), over the solver it is given:
//
//   - PF-S  (Algorithm 1): the deterministic sequential algorithm — a
//     sequential run on the near-exact solver (internal/solver/exact).
//   - PF-AS: the approximate sequential algorithm — a sequential run on the
//     MOGD solver (internal/solver/mogd).
//   - PF-AP: the approximate parallel algorithm — a parallel run, which
//     partitions the hyperrectangle under exploration into an l^k grid and
//     probes every cell's CO problem simultaneously.
//
// The algorithms are incremental (frontiers only grow as more probes are
// invested) and uncertainty-aware (the sub-hyperrectangle with the largest
// uncertain volume is always probed next).
package core

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/objective"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

// ErrNoReferencePoint is returned when a per-objective reference solve finds
// no feasible configuration, i.e. the user's value constraints are
// unsatisfiable under the current models.
var ErrNoReferencePoint = errors.New("core: reference-point solve found no feasible configuration")

// ProbeOrder selects how the next hyperrectangle to probe is chosen.
type ProbeOrder int

// Probe orders. OrderVolume is the paper's uncertainty-aware policy; the
// others exist for the ablation study of DESIGN.md §4.
const (
	OrderVolume ProbeOrder = iota // largest uncertain volume first (default)
	OrderFIFO                     // breadth-first
	OrderRandom                   // uniformly random
)

// Options controls a Progressive Frontier run. The probe budget, M of
// Algorithm 1, is Expand's argument.
type Options struct {
	// TimeBudget stops each Expand call after the given wall-clock duration;
	// zero means no time limit.
	TimeBudget time.Duration
	// Grid is l, the per-dimension grid degree of PF-AP (default 2).
	Grid int
	// Lower and Upper are the user's optional value constraints
	// F_i ∈ [F^L_i, F^U_i] (§II-B); nil means unbounded.
	Lower, Upper objective.Point
	// Order selects the probing policy (default OrderVolume).
	Order ProbeOrder
	// MinRectFrac drops hyperrectangles whose volume falls below this
	// fraction of the initial volume, treating them as resolved (default
	// 1e-6). This bounds refinement depth around discrete frontiers.
	MinRectFrac float64
	// Seed feeds the underlying solver's multi-start randomness.
	Seed int64
	// OnProgress, when non-nil, is invoked after every probe (sequential) or
	// probe batch (parallel) with a snapshot of the run.
	OnProgress func(Snapshot)
	// Telemetry, when non-nil, records the run's per-probe uncertain-space
	// trajectory — the quantity Figures 4, 5 and 8 track over time — as
	// trace events tagged with RunID, and feeds the PF probe counters and
	// the uncertain-fraction gauge.
	Telemetry *telemetry.Telemetry
	RunID     string
	// Workload, when set, additionally labels the uncertain-fraction gauge
	// per workload (udao_pf_uncertain_frac{workload="..."}), so interleaved
	// workloads stop clobbering each other's last reading.
	Workload string
	// ParentSpan nests this run's expand spans under an enclosing span (the
	// service's per-request root). Mutable across requests via
	// Run.SetParentSpan.
	ParentSpan uint64
}

// Snapshot reports the state of a PF run after a probe.
type Snapshot struct {
	Probes        int                  // probes issued so far
	Evals         uint64               // model passes by the solver's evaluator
	Elapsed       time.Duration        // wall-clock since the run started
	UncertainFrac float64              // remaining uncertain space / initial volume
	Frontier      []objective.Solution // dominance-filtered frontier so far
}

func (o *Options) defaults(k int) {
	if o.Grid == 0 {
		o.Grid = 2
	}
	if o.MinRectFrac == 0 {
		o.MinRectFrac = 1e-6
	}
	if o.Lower == nil {
		o.Lower = make(objective.Point, k)
		for i := range o.Lower {
			o.Lower[i] = math.Inf(-1)
		}
	}
	if o.Upper == nil {
		o.Upper = make(objective.Point, k)
		for i := range o.Upper {
			o.Upper[i] = math.Inf(1)
		}
	}
}

// rectQueue is a max-heap of hyperrectangles ordered by priority — volume
// under the paper's uncertainty-aware policy (§IV-A), insertion order or a
// random draw under the ablation policies.
type rectItem struct {
	rect     objective.Rect
	volume   float64
	priority float64 // larger pops first
}

type rectQueue []rectItem

func (q rectQueue) Len() int            { return len(q) }
func (q rectQueue) Less(i, j int) bool  { return q[i].priority > q[j].priority }
func (q rectQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *rectQueue) Push(x interface{}) { *q = append(*q, x.(rectItem)) }
func (q *rectQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func (q rectQueue) totalVolume() float64 {
	s := 0.0
	for _, it := range q {
		s += it.volume
	}
	return s
}

// referencePoints solves the k single-objective problems of Algorithm 1
// line 2 under the user's global constraints, returning the k plans.
func referencePoints(s solver.Solver, opt Options) ([]objective.Solution, error) {
	k := s.NumObjectives()
	cos := make([]solver.CO, k)
	for i := 0; i < k; i++ {
		cos[i] = solver.CO{Target: i, Lo: append([]float64(nil), opt.Lower...), Hi: append([]float64(nil), opt.Upper...)}
	}
	results := s.SolveBatch(cos, opt.Seed)
	plans := make([]objective.Solution, 0, k)
	for i, r := range results {
		if !r.OK {
			return nil, fmt.Errorf("%w (objective %d)", ErrNoReferencePoint, i)
		}
		plans = append(plans, r.Sol)
	}
	return plans, nil
}

// initialRect derives the Utopia/Nadir hyperrectangle from the reference
// plans (Definition III.2). ok is false when the rectangle is degenerate —
// the frontier collapses to a single point.
func initialRect(plans []objective.Solution) (objective.Rect, bool) {
	refs := make([]objective.Point, len(plans))
	for i, p := range plans {
		refs[i] = p.F
	}
	utopia, nadir := objective.Bounds(refs)
	for i := range utopia {
		if nadir[i] <= utopia[i] {
			return objective.Rect{}, false
		}
	}
	return objective.Rect{Utopia: utopia, Nadir: nadir}, true
}

// probeTarget is the objective index each Middle Point Probe minimizes;
// Definition III.3 allows any choice.
const probeTarget = 0

// middleCO builds the Middle Point Probe CO problem of Definition III.3 for
// a hyperrectangle: minimize the target within [Utopia, (Utopia+Nadir)/2].
func middleCO(rect objective.Rect) solver.CO {
	return solver.CO{
		Target: probeTarget,
		Lo:     rect.Utopia.Clone(),
		Hi:     rect.Middle(),
	}
}

// push enqueues a rectangle unless it is below the resolution cutoff.
func (r *Run) push(rect objective.Rect) {
	v := rect.Volume()
	if v <= 0 || v < r.opt.MinRectFrac*r.initVol {
		return
	}
	r.seq++
	pri := v
	switch r.opt.Order {
	case OrderFIFO:
		pri = -float64(r.seq)
	case OrderRandom:
		if r.rng == nil {
			r.rng = rand.New(rand.NewSource(r.opt.Seed + 424243))
		}
		pri = r.rng.Float64()
	}
	heap.Push(&r.queue, rectItem{rect: rect, volume: v, priority: pri})
	r.queueVol += v
}

// pop removes and returns the highest-priority rectangle, keeping the cached
// queue volume in sync.
func (r *Run) pop() rectItem {
	it := heap.Pop(&r.queue).(rectItem)
	r.queueVol -= it.volume
	if r.queueVol < 0 || r.queue.Len() == 0 {
		// Snap accumulated float drift back to exact zero at the boundaries.
		if r.queue.Len() == 0 {
			r.queueVol = 0
		} else {
			r.queueVol = r.queue.totalVolume()
		}
	}
	return it
}

func (r *Run) expired() bool {
	return r.opt.TimeBudget > 0 && time.Since(r.start) > r.opt.TimeBudget
}

func (r *Run) report() {
	r.observe()
	if r.opt.OnProgress == nil {
		return
	}
	r.opt.OnProgress(Snapshot{
		Probes:        r.probes,
		Evals:         r.s.Evals(),
		Elapsed:       time.Since(r.start),
		UncertainFrac: r.UncertainFrac(),
		Frontier:      objective.Filter(r.plans),
	})
}

// observe flushes the probe counter delta, updates the uncertain-fraction
// gauge, and appends one point of the run's uncertain-space trajectory to
// the trace — the per-probe series behind Figs. 4–5.
func (r *Run) observe() {
	if r.telProbes == nil {
		return
	}
	if d := r.probes - r.lastProbes; d > 0 {
		r.telProbes.Add(uint64(d))
		r.lastProbes = r.probes
	}
	frac := r.UncertainFrac()
	r.telUncertain.Set(frac)
	if r.telUncertainW != nil {
		r.telUncertainW.Set(frac)
	}
	if r.tracer.Enabled(telemetry.LevelRun) {
		r.tracer.Emit(telemetry.LevelRun, telemetry.Event{
			Run: r.opt.RunID, Scope: "pf", Name: "probe",
			Dur: time.Since(r.start),
			Attrs: map[string]float64{
				"probes": float64(r.probes), "uncertain_frac": frac,
				"frontier": float64(len(r.plans)), "evals": float64(r.s.Evals()),
				"queued_rects": float64(r.queue.Len()),
			},
		})
	}
}

// fullCO builds the fallback probe over the whole rectangle: when the lower
// half-box of the Middle Point Probe is empty (Proposition A.3), minimizing
// the target over [Utopia, Nadir] either finds a Pareto point of the
// rectangle (Proposition A.1) that subdivides it, or proves the rectangle
// holds no feasible point at all and it can be discarded. This keeps failed
// probes from fragmenting empty regions indefinitely.
func fullCO(rect objective.Rect) solver.CO {
	return solver.CO{
		Target: probeTarget,
		Lo:     rect.Utopia.Clone(),
		Hi:     rect.Nadir.Clone(),
	}
}

// shrinkNoProgress guards against probe points that sit exactly on a corner
// of the parent rectangle: the Subdivide cell then coincides with the parent
// and the run would loop. The cell is shrunk by a tiny margin away from the
// probed point's touching faces, sacrificing an epsilon-thick boundary band
// (which only ever contains points within 1e-6 of the span of the
// already-recorded probe) in exchange for guaranteed progress.
func shrinkNoProgress(parent, sub objective.Rect, f objective.Point) objective.Rect {
	same := true
	for d := range parent.Utopia {
		if sub.Utopia[d] != parent.Utopia[d] || sub.Nadir[d] != parent.Nadir[d] {
			same = false
			break
		}
	}
	if !same {
		return sub
	}
	out := objective.Rect{Utopia: sub.Utopia.Clone(), Nadir: sub.Nadir.Clone()}
	const margin = 1e-6
	for d := range f {
		span := out.Nadir[d] - out.Utopia[d]
		if f[d] <= out.Utopia[d] {
			out.Utopia[d] += margin * span
		}
		if f[d] >= out.Nadir[d] {
			out.Nadir[d] -= margin * span
		}
	}
	return out
}

// stepSequential performs one Middle Point Probe (with its full-box
// fallback) on the largest queued hyperrectangle.
func (r *Run) stepSequential() {
	it := r.pop()
	co := middleCO(it.rect)
	sol, found := r.s.Solve(co, r.opt.Seed+int64(r.probes)*1_000_003)
	r.probes++
	if !found {
		// The lower half-box is empty; fall back to probing the whole
		// rectangle before giving up on it.
		sol, found = r.s.Solve(fullCO(it.rect), r.opt.Seed+int64(r.probes)*1_000_003+1)
		r.probes++
	}
	if found {
		r.plans = append(r.plans, sol)
		for _, sub := range it.rect.Subdivide(sol.F) {
			r.push(shrinkNoProgress(it.rect, sub, sol.F))
		}
	}
	r.report()
}

// stepParallel partitions the largest queued hyperrectangle into an l^k grid
// and probes every cell simultaneously, retrying failed cells once over
// their full boxes.
func (r *Run) stepParallel() {
	it := r.pop()
	cells := it.rect.GridCells(r.opt.Grid)
	cos := r.cos[:0]
	for _, c := range cells {
		cos = append(cos, middleCO(c))
	}
	r.cos = cos
	results := r.s.SolveBatch(cos, r.opt.Seed+int64(r.probes)*1_000_003)
	r.probes += len(cells)
	// Failed cells get one full-box retry as a second batch.
	retryIdx := r.retryIdx[:0]
	retryCOs := r.retryCOs[:0]
	for i, res := range results {
		if !res.OK {
			retryIdx = append(retryIdx, i)
			retryCOs = append(retryCOs, fullCO(cells[i]))
		}
	}
	r.retryIdx, r.retryCOs = retryIdx, retryCOs
	if len(retryCOs) > 0 {
		retried := r.s.SolveBatch(retryCOs, r.opt.Seed+int64(r.probes)*1_000_003+1)
		r.probes += len(retryCOs)
		for j, res := range retried {
			results[retryIdx[j]] = res
		}
	}
	for i, res := range results {
		if res.OK {
			r.plans = append(r.plans, res.Sol)
			for _, sub := range cells[i].Subdivide(res.Sol.F) {
				r.push(shrinkNoProgress(cells[i], sub, res.Sol.F))
			}
		}
	}
	r.report()
}
