package core

import (
	"math/rand"
	"time"

	"repro/internal/metrics"
	"repro/internal/objective"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

// Run is a resumable Progressive Frontier computation — the incremental mode
// of §IV-A: "it produces n1 points first (e.g., those that can be computed
// within the first second), and then expands with additional n2 points,
// afterwards n3 points, and so on". The frontier only ever grows across
// Expand calls (consistency), and probing order stays uncertainty-aware.
type Run struct {
	s        solver.Solver
	opt      Options
	parallel bool
	budget   int
	// started marks that the first Expand ran its reference-point solves;
	// the probing state below is meaningful only from then on.
	started bool
	// degenerate marks a frontier that collapsed to a single point during
	// initialization; further expansion is a no-op.
	degenerate bool
	// history records one ExpandStep per Expand call — the incremental
	// trajectory the run registry persists and udao-traceview replays.
	history []ExpandStep

	start   time.Time // start of the current Expand call
	initVol float64
	queue   rectQueue
	// queueVol caches the sum of queued rectangle volumes, maintained
	// incrementally by push/pop so every OnProgress snapshot and
	// UncertainFrac call stops re-summing the heap.
	queueVol float64
	plans    []objective.Solution
	probes   int
	seq      int
	rng      *rand.Rand
	// cos/retryIdx/retryCOs are the parallel step's reusable batch slices.
	cos      []solver.CO
	retryIdx []int
	retryCOs []solver.CO

	// Telemetry instruments (nil when Options.Telemetry is nil).
	telProbes     *telemetry.Counter
	telUncertain  *telemetry.Gauge
	telUncertainW *telemetry.Gauge // per-workload series (nil without Workload)
	tracer        *telemetry.Tracer
	lastProbes    int // probes already flushed to telProbes
}

// ExpandStep summarizes one Expand call of a run: the probes it invested,
// the cumulative probe count, the frontier size, hypervolume and uncertain
// fraction it reached, and its wall-clock cost. Hypervolume is measured in
// the [utopia, nadir] box spanned by every plan probed so far — the box can
// widen as later expands discover more extreme points, so the trajectory is
// an indicator, not a strictly comparable series; it is NaN while the box is
// degenerate (fewer than two distinct points).
type ExpandStep struct {
	Probes        int
	TotalProbes   int
	Frontier      int
	Hypervolume   float64
	UncertainFrac float64
	Elapsed       time.Duration
}

// NewRun prepares a resumable run, resolving its telemetry instruments once;
// no probes are issued until Expand. Each Expand call carries its own probe
// budget, and Options.TimeBudget applies to each call separately.
func NewRun(s solver.Solver, parallel bool, opt Options) *Run {
	opt.defaults(s.NumObjectives())
	r := &Run{s: s, opt: opt, parallel: parallel}
	if tel := opt.Telemetry; tel != nil {
		r.telProbes = tel.Metrics.Counter(telemetry.MetricPFProbes)
		r.telUncertain = tel.Metrics.Gauge(telemetry.MetricPFUncertain)
		if opt.Workload != "" {
			r.telUncertainW = tel.Metrics.Gauge(telemetry.Labeled(telemetry.MetricPFUncertain, "workload", opt.Workload))
		}
		r.tracer = tel.Trace
	}
	return r
}

// Expand invests `probes` additional solver probes (the k reference-point
// solves count against the first call's budget) and returns the
// dominance-filtered frontier found so far. The budget is checked between
// steps, so the final step may overshoot by its own probe count (one
// fallback probe sequentially, one cell batch in parallel mode).
func (r *Run) Expand(probes int) ([]objective.Solution, error) {
	r.budget += probes
	t0 := time.Now()
	startProbes := r.probes
	// One span per Expand call, nested under the request's root span (if
	// any); the solver's per-solve spans nest under it in turn.
	var span telemetry.Span
	if tel := r.opt.Telemetry; tel != nil {
		span = tel.Trace.StartSpan(telemetry.LevelRun, r.opt.RunID, r.opt.ParentSpan, "pf", "expand")
		if ss, ok := r.s.(spanScoped); ok {
			ss.SetParentSpan(span.ID())
		}
	}
	// Each Expand gets a fresh wall-clock budget.
	r.start = time.Now()
	if !r.started {
		r.started = true
		plans, err := referencePoints(r.s, r.opt)
		if err != nil {
			span.End("error", nil)
			return nil, err
		}
		r.plans = plans
		r.probes = r.s.NumObjectives()
		rect, ok := initialRect(plans)
		if !ok {
			r.degenerate = true
			r.finishExpand(t0, startProbes, span)
			return r.Frontier(), nil
		}
		r.initVol = rect.Volume()
		r.push(rect)
		r.report()
	}
	if r.degenerate {
		span.End("degenerate", nil)
		return r.Frontier(), nil
	}
	for r.queue.Len() > 0 && r.probes < r.budget && !r.expired() {
		if r.parallel {
			r.stepParallel()
		} else {
			r.stepSequential()
		}
	}
	r.finishExpand(t0, startProbes, span)
	return r.Frontier(), nil
}

// spanScoped is the optional solver capability Run uses to nest the solver's
// per-solve spans under the current expand span.
type spanScoped interface{ SetParentSpan(id uint64) }

// SetParentSpan re-parents the spans of subsequent Expand calls — the service
// calls this per request so a cached run's timing lands under the right
// request root.
func (r *Run) SetParentSpan(id uint64) { r.opt.ParentSpan = id }

// finishExpand closes one Expand call: it appends the step to the run's
// history and, with telemetry attached, ends the expand span — the probes
// invested, the resulting frontier size and the uncertain space left.
func (r *Run) finishExpand(t0 time.Time, startProbes int, span telemetry.Span) {
	front := objective.Filter(r.plans)
	frontier := len(front)
	all := make([]objective.Point, len(r.plans))
	for i := range r.plans {
		all[i] = r.plans[i].F
	}
	pts := make([]objective.Point, len(front))
	for i := range front {
		pts[i] = front[i].F
	}
	utopia, nadir := objective.Bounds(all)
	r.history = append(r.history, ExpandStep{
		Probes:        r.probes - startProbes,
		TotalProbes:   r.probes,
		Frontier:      frontier,
		Hypervolume:   metrics.Hypervolume(pts, utopia, nadir),
		UncertainFrac: r.UncertainFrac(),
		Elapsed:       time.Since(t0),
	})
	if r.telProbes == nil {
		return
	}
	r.observe() // flush any probes issued since the last report
	if tel := r.opt.Telemetry; tel != nil {
		tel.Metrics.Counter(telemetry.MetricPFExpansions).Add(1)
	}
	span.End("", map[string]float64{
		"probes":         float64(r.probes - startProbes),
		"total_probes":   float64(r.probes),
		"frontier":       float64(frontier),
		"uncertain_frac": r.UncertainFrac(),
		"degenerate":     boolAttr(r.degenerate),
	})
}

// History returns one step per Expand call so far (a copy) — the §IV-A
// incremental trajectory: frontier size and uncertain fraction after each
// additional probe investment.
func (r *Run) History() []ExpandStep {
	out := make([]ExpandStep, len(r.history))
	copy(out, r.history)
	return out
}

func boolAttr(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Frontier returns the current dominance-filtered Pareto set (nil before the
// first Expand).
func (r *Run) Frontier() []objective.Solution {
	if !r.started {
		return nil
	}
	return objective.Filter(r.plans)
}

// Probes returns the number of solver probes issued so far.
func (r *Run) Probes() int { return r.probes }

// UncertainFrac returns the fraction of the initial hyperrectangle volume
// still unresolved: 1 before initialization and after a failed
// reference-point solve, 0 when exhausted or degenerate. Snapshots, the
// uncertain-fraction gauge, probe events, expand spans and History all
// report this one value.
func (r *Run) UncertainFrac() float64 {
	switch {
	case r.degenerate:
		return 0
	case r.initVol <= 0:
		return 1
	}
	return r.queueVol / r.initVol
}

// Exhausted reports whether the uncertain space is fully resolved: further
// Expand calls cannot find new Pareto points.
func (r *Run) Exhausted() bool {
	return r.degenerate || r.started && r.queue.Len() == 0
}
