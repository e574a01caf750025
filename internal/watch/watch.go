// Package watch is the service's self-observation loop: a watchdog that
// periodically snapshots the metrics registry and the run registry, evaluates
// a small catalog of declarative health rules over the deltas, and turns
// violations into durable structured alerts — appended to a rotating
// alerts.jsonl, held in a bounded in-memory ring for GET /alerts, and
// (optionally) answered with a flight-recorder bundle: a bounded pprof
// capture plus the offending run's trace snapshot, taken at the moment the
// system misbehaved rather than minutes later when someone attaches.
//
// alerts.jsonl is a runlog.Journal, the durable log the run registry and the
// calibration ledger share: a restarted watchdog replays it, so alert IDs
// ("alert-000001") keep counting across restarts — and with them the flight
// bundle directories named after them — and GET /alerts still lists the
// alerts raised before the restart. A sweep that raised alerts returns only
// once they are on disk.
//
// The rule catalog (thresholds are the package constants named below, values
// in parentheses):
//
//   - slo_burn: per workload, the fraction of solves in the last window that
//     breached the latency SLO. Fires at >= sloBurnThreshold (0.5) once the
//     window holds >= sloBurnMin (4) solves.
//   - hv_drop_streak: per workload, dropStreak (3) consecutive recorded runs
//     with a negative hypervolume delta — the frontier is getting worse, not
//     noisier. Evaluated over the run registry, so it survives restarts.
//   - latency_anomaly: the window's mean solve latency exceeded
//     ewmaDeviation (3x) times its exponentially weighted moving average
//     (factor ewmaFactor 0.3, trusted after ewmaMinObs 3 windows).
//   - eval_stall: the evaluator's model-pass rate collapsed below 1/ewmaDeviation
//     of its EWMA while solves were in flight.
//   - shed_burst: the serving path shed (429'd) at least shedBurstThreshold
//     (0.05) of the window's requests, with >= shedBurstMin (20) requests in
//     the window — admission control went from safety valve to steady state.
//   - cache_thrash: the serving cache evicted (LRU) at least as many
//     optimizers as it served hits over the window, with >= cacheThrashMin
//     (8) evictions — the working set no longer fits and every miss pays a
//     full rebuild.
//   - calib_drift: per workload+objective, the calibration ledger's rolling
//     MAPE — predictions vs observed outcomes — reached calibMAPEMax (0.35)
//     with >= calibMinPairs (8) pairs in the window: the model has drifted
//     from the workload it was trained on and needs retraining.
//   - coverage_collapse: per workload+objective, the fraction of outcomes
//     inside the model's own z·sigma uncertainty interval fell below
//     calibCoverageFloor (0.5) over >= calibMinPairs std-bearing pairs — the
//     model is not just wrong, it is confidently wrong, so the §IV-B.3
//     uncertainty-aware optimization can no longer trust its variance.
//
// Every rule is edge-triggered per offending key (workload or series): an
// alert fires when the condition becomes true for new data, not on every
// sweep while it stays true.
package watch

import (
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calib"
	"repro/internal/runlog"
	"repro/internal/telemetry"
)

// Alert is one structured watchdog finding — the unit of alerts.jsonl, of
// GET /alerts, and of flight-recorder captures.
type Alert struct {
	ID       string    `json:"id"`
	Time     time.Time `json:"time"`
	Rule     string    `json:"rule"`
	Severity string    `json:"severity"` // "warning" or "critical"
	Workload string    `json:"workload,omitempty"`
	Summary  string    `json:"summary"`
	// Value is the measured quantity that violated the rule; Threshold the
	// bound it was judged against (rule-specific units).
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// RunRecord / TraceRun join the alert to the run registry and the trace
	// sink when the rule implicates a specific run.
	RunRecord string `json:"run_record,omitempty"`
	TraceRun  string `json:"trace_run,omitempty"`
	// Bundle is the flight-recorder directory captured for this alert
	// (absent when flight recording is disabled or rate-limited).
	Bundle string `json:"bundle,omitempty"`
}

// Rule thresholds. udao-traceview calib judges its offline report by the
// calibration ones through CalibDrift and CoverageCollapse.
const (
	sloBurnThreshold = 0.5 // slo_burn: breached fraction of the window's solves
	sloBurnMin       = 4   // slo_burn: solves in the window before it is judged
	dropStreak       = 3   // hv_drop_streak: consecutive runs with a negative delta

	ewmaFactor    = 0.3 // latency_anomaly, eval_stall: EWMA smoothing factor
	ewmaDeviation = 3.0 // latency_anomaly, eval_stall: tolerated factor off the EWMA
	ewmaMinObs    = 3   // latency_anomaly, eval_stall: windows before the EWMA is trusted

	shedBurstThreshold = 0.05 // shed_burst: shed fraction of the window's requests
	shedBurstMin       = 20   // shed_burst: requests in the window before it is judged
	cacheThrashMin     = 8    // cache_thrash: LRU evictions in the window

	calibMAPEMax       = 0.35 // calib_drift: rolling MAPE ceiling
	calibMinPairs      = 8    // pairs in a window before it is judged
	calibCoverageFloor = 0.5  // coverage_collapse: interval coverage floor
)

// Config tunes a Watchdog. Telemetry is required; everything else has a
// usable zero value.
type Config struct {
	Telemetry *telemetry.Telemetry
	// Runs, when non-nil, enables the run-registry rules (hv_drop_streak).
	Runs *runlog.Registry
	// AlertPath is the durable alert log (a runlog.Journal, size-rotated like
	// the run registry's files, runlog.DefaultKeep of them kept). Empty
	// disables the durable log — alerts then live only in the in-memory
	// ring, numbered from alert-000001.
	AlertPath     string
	AlertMaxBytes int64
	// Interval between rule sweeps (default 15s).
	Interval time.Duration

	// Calib, when non-nil, enables the calibration rules (calib_drift,
	// coverage_collapse) over the prediction–outcome ledger's rolling
	// windows.
	Calib *calib.Ledger

	// Flight configures the triggered flight recorder; zero disables it.
	Flight FlightConfig

	Logger *slog.Logger
	// Now is the clock (test hook; default time.Now).
	Now func() time.Time
}

func (c *Config) defaults() {
	if c.Interval <= 0 {
		c.Interval = 15 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
}

// maxRecentAlerts bounds the in-memory alert ring served by GET /alerts.
const maxRecentAlerts = 256

// Watchdog evaluates the rule catalog on a fixed cadence. Construct with
// New, then Start; EvalOnce is exported so tests (and operators via
// debugging endpoints) can force a deterministic sweep.
type Watchdog struct {
	cfg    Config
	log    *runlog.Journal[Alert]
	flight *flightRecorder

	evals atomic.Uint64

	mu       sync.Mutex
	recent   []Alert
	prev     telemetry.Snapshot
	hasPrev  bool
	lastEval time.Time
	// fired tracks edge-triggering state per rule+key: the identity of the
	// last data the rule alerted on, so a persistent condition alerts once
	// per new evidence, not once per sweep.
	fired map[string]string
	ewma  map[string]float64
	ewmaN map[string]uint64

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func alertID(a *Alert) *string { return &a.ID }

// New builds a watchdog (opening the durable alert log if configured, and
// replaying its newest alerts into the GET /alerts ring) but does not start
// the sweep loop.
func New(cfg Config) (*Watchdog, error) {
	if cfg.Telemetry == nil {
		return nil, fmt.Errorf("watch: Config.Telemetry is required")
	}
	cfg.defaults()
	w := &Watchdog{
		cfg:   cfg,
		fired: map[string]string{},
		ewma:  map[string]float64{},
		ewmaN: map[string]uint64{},
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	opts := runlog.Options{MaxBytes: cfg.AlertMaxBytes}
	log, err := runlog.OpenJournal(cfg.AlertPath, "alert", opts, alertID, w.remember)
	if err != nil {
		return nil, fmt.Errorf("watch: open alert log: %w", err)
	}
	w.log = log
	if cfg.Flight.Dir != "" {
		w.flight = newFlightRecorder(cfg.Flight, cfg.Telemetry, cfg.Now)
	}
	return w, nil
}

// Start launches the periodic sweep loop. Call Stop to end it.
func (w *Watchdog) Start() {
	w.started.Store(true)
	go func() {
		defer close(w.done)
		t := time.NewTicker(w.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.EvalOnce()
			}
		}
	}()
}

// Stop ends the sweep loop and closes the alert log. Safe to call more than
// once; blocks until the loop has exited.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() {
		close(w.stop)
		if w.started.Load() {
			<-w.done
		}
		// A failed write is already reported by Err.
		_ = w.log.Close()
	})
}

// Err reports the alert log's health: nil while alerts can be persisted,
// the first failed alert-log write (it stays set), or an error once the
// watchdog is stopped. The service's /readyz gates on it: a watchdog that can
// no longer persist alerts is a monitoring outage.
func (w *Watchdog) Err() error { return w.log.Err() }

// Evals returns the number of completed rule sweeps.
func (w *Watchdog) Evals() uint64 { return w.evals.Load() }

// LastEval returns the time of the last completed sweep (zero before the
// first).
func (w *Watchdog) LastEval() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastEval
}

// Alerts returns the most recent alerts, newest first, at most limit
// (<= 0 means all retained).
func (w *Watchdog) Alerts(limit int) []Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.recent)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Alert, n)
	for i := 0; i < n; i++ {
		out[i] = w.recent[len(w.recent)-1-i]
	}
	return out
}

// EvalOnce performs one rule sweep: snapshot, evaluate every rule against
// the previous snapshot's window, raise alerts. It returns the alerts raised
// by this sweep (usually none); the alert log holds them, flushed to disk,
// by the time it returns.
func (w *Watchdog) EvalOnce() []Alert {
	now := w.cfg.Now()
	snap := w.cfg.Telemetry.Metrics.Snapshot()

	w.mu.Lock()
	var raised []Alert
	if w.hasPrev {
		raised = append(raised, w.ruleSLOBurn(snap)...)
		raised = append(raised, w.ruleLatencyAnomaly(snap)...)
		raised = append(raised, w.ruleEvalStall(snap, now)...)
		raised = append(raised, w.ruleShedBurst(snap)...)
		raised = append(raised, w.ruleCacheThrash(snap)...)
	}
	if w.cfg.Runs != nil {
		raised = append(raised, w.ruleHVDropStreak()...)
	}
	if w.cfg.Calib != nil {
		raised = append(raised, w.ruleCalibDrift()...)
		raised = append(raised, w.ruleCoverageCollapse()...)
	}
	w.prev, w.hasPrev = snap, true
	w.lastEval = now
	w.mu.Unlock()

	for i := range raised {
		w.raise(&raised[i], now)
	}
	if len(raised) > 0 {
		// A failed write or flush stays in Err, which /readyz reports.
		_ = w.log.Sync()
	}

	w.evals.Add(1)
	m := w.cfg.Telemetry.Metrics
	m.Counter(telemetry.MetricWatchEvals).Inc()
	m.Gauge(telemetry.MetricWatchLastEval).Set(float64(now.Unix()))
	return raised
}

// raise finalizes one alert: ID and flight-recorder capture, durable log
// append, in-memory ring, metrics, structured log. A stopped watchdog's
// closed log rejects the alert, which then only reaches the logger.
func (w *Watchdog) raise(a *Alert, now time.Time) {
	a.Time = now
	if err := w.log.Append(a, w.capture); err != nil {
		if w.cfg.Logger != nil {
			w.cfg.Logger.Warn("watchdog alert not recorded", "rule", a.Rule, "workload", a.Workload, "err", err)
		}
		return
	}
	w.remember(*a)

	m := w.cfg.Telemetry.Metrics
	m.Counter(telemetry.MetricWatchAlerts).Inc()
	m.Counter(telemetry.Labeled(telemetry.MetricWatchAlerts, "rule", a.Rule)).Inc()
	if w.cfg.Logger != nil {
		w.cfg.Logger.Warn("watchdog alert",
			"alert", a.ID, "rule", a.Rule, "severity", a.Severity,
			"workload", a.Workload, "value", a.Value, "threshold", a.Threshold,
			"summary", a.Summary)
	}
}

// capture attaches a flight-recorder bundle, named after the alert's fresh
// ID, to the alert.
func (w *Watchdog) capture(a *Alert) {
	if w.flight == nil {
		return
	}
	if dir, err := w.flight.capture(*a); err == nil && dir != "" {
		a.Bundle = dir
	} else if err != nil && w.cfg.Logger != nil {
		w.cfg.Logger.Warn("flight capture failed", "alert", a.ID, "err", err)
	}
}

// remember adds an alert to the in-memory ring GET /alerts serves.
func (w *Watchdog) remember(a Alert) {
	w.mu.Lock()
	w.recent = append(w.recent, a)
	if len(w.recent) > maxRecentAlerts {
		w.recent = w.recent[len(w.recent)-maxRecentAlerts:]
	}
	w.mu.Unlock()
}

// latch is the edge trigger every rule shares. While a key's condition
// holds it fires once per new evidence — the identity of the data the
// condition was judged on — and a healthy sweep re-arms it.
func (w *Watchdog) latch(key string, violated bool, evidence string) bool {
	if !violated {
		delete(w.fired, key)
		return false
	}
	if last, ok := w.fired[key]; ok && last == evidence {
		return false
	}
	w.fired[key] = evidence
	return true
}

// counterDelta returns the window increase of a counter series.
func (w *Watchdog) counterDelta(snap telemetry.Snapshot, name string) uint64 {
	cur := snap.Counters[name]
	prev := w.prev.Counters[name]
	if cur < prev { // restart or reset
		return cur
	}
	return cur - prev
}

// ruleSLOBurn: per workload, breaches/(breaches+oks) over the window. A
// workload's ok series is its breach series' label block on the ok family,
// so the rule judges a workload whichever quoting wrote that block.
func (w *Watchdog) ruleSLOBurn(snap telemetry.Snapshot) []Alert {
	var blocks []string
	for name := range snap.Counters {
		if block, ok := strings.CutPrefix(name, telemetry.MetricSolveSLOBreach); ok && strings.HasPrefix(block, "{") {
			blocks = append(blocks, block)
		}
	}
	sort.Strings(blocks)
	var out []Alert
	for _, block := range blocks {
		wl, ok := telemetry.LabelValue(block, "workload")
		if !ok {
			continue
		}
		breachName := telemetry.MetricSolveSLOBreach + block
		okName := telemetry.MetricSolveSLOOk + block
		breach := w.counterDelta(snap, breachName)
		oks := w.counterDelta(snap, okName)
		total := breach + oks
		if total < sloBurnMin {
			continue
		}
		frac := float64(breach) / float64(total)
		evidence := fmt.Sprintf("%d/%d", snap.Counters[breachName], snap.Counters[okName])
		if !w.latch("slo_burn|"+wl, frac >= sloBurnThreshold, evidence) {
			continue
		}
		sev := "warning"
		if frac >= 0.9 {
			sev = "critical"
		}
		out = append(out, Alert{
			Rule: "slo_burn", Severity: sev, Workload: wl,
			Value: frac, Threshold: sloBurnThreshold,
			Summary: fmt.Sprintf("workload %q: %d of %d solves in the last window breached the latency SLO (%.0f%%)", wl, breach, total, 100*frac),
		})
	}
	return out
}

// ruleLatencyAnomaly: the window's mean solve latency against its EWMA.
func (w *Watchdog) ruleLatencyAnomaly(snap telemetry.Snapshot) []Alert {
	cur := snap.Histograms[telemetry.MetricSolveLatency]
	prev := w.prev.Histograms[telemetry.MetricSolveLatency]
	dn := cur.Count - prev.Count
	if cur.Count < prev.Count { // reset
		dn = cur.Count
		prev = telemetry.HistogramSnapshot{}
	}
	if dn == 0 {
		return nil
	}
	mean := (cur.Sum - prev.Sum) / float64(dn)
	const series = "solve_latency"
	ew, n := w.ewma[series], w.ewmaN[series]
	defer func() {
		if n == 0 {
			w.ewma[series] = mean
		} else {
			w.ewma[series] = ew + ewmaFactor*(mean-ew)
		}
		w.ewmaN[series] = n + 1
	}()
	if n < ewmaMinObs || ew <= 0 {
		return nil
	}
	if !w.latch("latency|", mean > ewmaDeviation*ew, fmt.Sprintf("%d", cur.Count)) {
		return nil
	}
	return []Alert{{
		Rule: "latency_anomaly", Severity: "warning",
		Value: mean, Threshold: ewmaDeviation * ew,
		Summary: fmt.Sprintf("mean solve latency %.3fs in the last window, %.1fx its moving average %.3fs", mean, mean/ew, ew),
	}}
}

// ruleEvalStall: model-pass throughput collapsed while solves were running.
func (w *Watchdog) ruleEvalStall(snap telemetry.Snapshot, now time.Time) []Alert {
	dEvals := w.counterDelta(snap, telemetry.MetricModelEvals)
	dSolves := w.counterDelta(snap, telemetry.MetricMOGDSolves)
	elapsed := w.cfg.Interval.Seconds()
	if !w.lastEval.IsZero() {
		if dt := now.Sub(w.lastEval).Seconds(); dt > 0 {
			elapsed = dt
		}
	}
	rate := float64(dEvals) / elapsed
	const series = "eval_rate"
	ew, n := w.ewma[series], w.ewmaN[series]
	if dEvals > 0 {
		if n == 0 {
			w.ewma[series] = rate
		} else {
			w.ewma[series] = ew + ewmaFactor*(rate-ew)
		}
		w.ewmaN[series] = n + 1
	}
	// A stall is: solves progressed this window, the eval rate collapsed to
	// under 1/dev of its EWMA, and we have enough history to trust the EWMA.
	if dSolves == 0 || n < ewmaMinObs || ew <= 0 {
		return nil
	}
	if !w.latch("evalstall|", rate < ew/ewmaDeviation, fmt.Sprintf("%d", snap.Counters[telemetry.MetricMOGDSolves])) {
		return nil
	}
	return []Alert{{
		Rule: "eval_stall", Severity: "warning",
		Value: rate, Threshold: ew / ewmaDeviation,
		Summary: fmt.Sprintf("model-pass rate %.0f/s collapsed below 1/%.0f of its moving average %.0f/s while solves ran", rate, ewmaDeviation, ew),
	}}
}

// ruleShedBurst: the fraction of serving requests shed (429) over the window.
func (w *Watchdog) ruleShedBurst(snap telemetry.Snapshot) []Alert {
	reqs := w.counterDelta(snap, telemetry.MetricServingRequests)
	shed := w.counterDelta(snap, telemetry.MetricShed)
	if reqs < shedBurstMin {
		return nil // too little traffic to judge; keep the latch as-is
	}
	frac := float64(shed) / float64(reqs)
	if !w.latch("shedburst|", frac >= shedBurstThreshold, fmt.Sprintf("%d", snap.Counters[telemetry.MetricShed])) {
		return nil
	}
	sev := "warning"
	if frac >= 0.5 {
		sev = "critical"
	}
	return []Alert{{
		Rule: "shed_burst", Severity: sev,
		Value: frac, Threshold: shedBurstThreshold,
		Summary: fmt.Sprintf("serving shed %d of %d requests in the last window (%.1f%%) — admission control is load-shedding steadily", shed, reqs, 100*frac),
	}}
}

// ruleCacheThrash: the serving cache's LRU churn outpaced its reuse — at
// least cacheThrashMin evictions in the window and no fewer evictions than
// hits, i.e. the eviction share of (evictions+hits) reached 1/2.
func (w *Watchdog) ruleCacheThrash(snap telemetry.Snapshot) []Alert {
	evict := w.counterDelta(snap, telemetry.Labeled(telemetry.MetricServingEvictions, "reason", "lru"))
	hits := w.counterDelta(snap, telemetry.MetricServingHits)
	if evict < cacheThrashMin {
		return nil
	}
	share := float64(evict) / float64(evict+hits)
	evidence := fmt.Sprintf("%d", snap.Counters[telemetry.Labeled(telemetry.MetricServingEvictions, "reason", "lru")])
	if !w.latch("cachethrash|", share >= 0.5, evidence) {
		return nil
	}
	return []Alert{{
		Rule: "cache_thrash", Severity: "warning",
		Value: float64(evict), Threshold: cacheThrashMin,
		Summary: fmt.Sprintf("serving cache evicted %d optimizers against %d hits in the last window — the working set no longer fits; raise -cache-entries", evict, hits),
	}}
}

// traceRunOf joins a run-registry record ID to its trace run ID (for alert
// context), best effort.
func (w *Watchdog) traceRunOf(runID string) string {
	if w.cfg.Runs == nil || runID == "" {
		return ""
	}
	if rec, ok := w.cfg.Runs.Get(runID); ok {
		return rec.TraceRunID
	}
	return ""
}

// CalibDrift judges one calibration series by the calib_drift rule: judged
// when its window holds at least calibMinPairs pairs, violated when it is
// judged and its rolling MAPE reached calibMAPEMax.
func CalibDrift(st calib.ObjectiveStats) (judged, violated bool) {
	judged = st.Pairs >= calibMinPairs
	return judged, judged && st.MAPE >= calibMAPEMax
}

// CoverageCollapse judges one calibration series by the coverage_collapse
// rule: judged when at least calibMinPairs of its window's pairs carry a
// predictive std, violated when it is judged and the share of outcomes
// inside the model's interval fell below calibCoverageFloor.
func CoverageCollapse(st calib.ObjectiveStats) (judged, violated bool) {
	judged = st.CoveragePairs >= calibMinPairs && st.Coverage != calib.CoverageUnknown
	return judged, judged && st.Coverage < calibCoverageFloor
}

// ruleCalibDrift: per workload+objective, the rolling-window MAPE of
// predictions against observed outcomes reached calibMAPEMax. The
// total pair count is the edge evidence — a drifted window alerts once per
// newly observed outcome batch, not once per sweep.
func (w *Watchdog) ruleCalibDrift() []Alert {
	var out []Alert
	for _, wl := range w.cfg.Calib.Workloads() {
		for _, st := range w.cfg.Calib.Calibration(wl) {
			judged, drifted := CalibDrift(st)
			if !judged {
				continue
			}
			if !w.latch("calibdrift|"+wl+"|"+st.Objective, drifted, fmt.Sprintf("%d", st.Total)) {
				continue
			}
			sev := "warning"
			if st.MAPE >= 2*calibMAPEMax {
				sev = "critical"
			}
			out = append(out, Alert{
				Rule: "calib_drift", Severity: sev, Workload: wl,
				Value: st.MAPE, Threshold: calibMAPEMax,
				RunRecord: st.LastRun, TraceRun: w.traceRunOf(st.LastRun),
				Summary: fmt.Sprintf("workload %q: %s predictions off by %.0f%% MAPE over the last %d observed outcomes (bias %+.0f%%, ceiling %.0f%%) — the model has drifted; retrain from fresh traces", wl, st.Objective, 100*st.MAPE, st.Pairs, 100*st.Bias, 100*calibMAPEMax),
			})
		}
	}
	return out
}

// ruleCoverageCollapse: per workload+objective, too few observed outcomes
// land inside the model's own z·sigma uncertainty interval — the predictive
// variance underestimates the true error, so uncertainty-aware optimization
// (§IV-B.3) is optimizing against a fiction.
func (w *Watchdog) ruleCoverageCollapse() []Alert {
	var out []Alert
	for _, wl := range w.cfg.Calib.Workloads() {
		for _, st := range w.cfg.Calib.Calibration(wl) {
			judged, collapsed := CoverageCollapse(st)
			if !judged {
				continue
			}
			if !w.latch("calibcov|"+wl+"|"+st.Objective, collapsed, fmt.Sprintf("%d", st.Total)) {
				continue
			}
			sev := "warning"
			if st.Coverage < calibCoverageFloor/2 {
				sev = "critical"
			}
			out = append(out, Alert{
				Rule: "coverage_collapse", Severity: sev, Workload: wl,
				Value: st.Coverage, Threshold: calibCoverageFloor,
				RunRecord: st.LastRun, TraceRun: w.traceRunOf(st.LastRun),
				Summary: fmt.Sprintf("workload %q: only %.0f%% of %d observed %s outcomes fell inside the model's uncertainty interval (floor %.0f%%) — predictive variance is underestimating the true error", wl, 100*st.Coverage, st.CoveragePairs, st.Objective, 100*calibCoverageFloor),
			})
		}
	}
	return out
}

// ruleHVDropStreak: dropStreak consecutive recorded runs of one workload
// with negative hypervolume delta.
func (w *Watchdog) ruleHVDropStreak() []Alert {
	recs := w.cfg.Runs.List("", time.Time{}, 0)
	byWorkload := map[string][]runlog.Record{}
	for _, r := range recs {
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	workloads := make([]string, 0, len(byWorkload))
	for wl := range byWorkload {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)

	var out []Alert
	for _, wl := range workloads {
		rs := byWorkload[wl]
		streak, worst := 0, 0.0
		for i := len(rs) - 1; i >= 0; i-- {
			d := rs[i].Quality.HypervolumeDelta
			if d >= 0 || d == runlog.QualityUnknown {
				break
			}
			streak++
			if d < worst {
				worst = d
			}
		}
		last := rs[len(rs)-1]
		if !w.latch("hvdrop|"+wl, streak >= dropStreak, last.ID) {
			continue
		}
		out = append(out, Alert{
			Rule: "hv_drop_streak", Severity: "critical", Workload: wl,
			Value: float64(streak), Threshold: dropStreak,
			RunRecord: last.ID, TraceRun: last.TraceRunID,
			Summary: fmt.Sprintf("workload %q: hypervolume dropped %d runs in a row (worst delta %.4g, last run %s)", wl, streak, worst, last.ID),
		})
	}
	return out
}
