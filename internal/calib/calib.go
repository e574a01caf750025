// Package calib is the prediction–outcome ledger that closes the observe
// loop: the service records what the learned models *predicted* for every
// recommendation (internal/runlog), POST /observe brings back what the
// execution actually *measured*, and this package joins the two into durable
// matched pairs plus rolling per-workload/per-objective calibration —
// signed/absolute relative error (MAPE), quantile residuals, and
// uncertainty-interval coverage against the models' own predictive variance
// (GP posterior, DNN MC-dropout spread).
//
// The paper's premise (§V–VI) is that the models predict objectives well
// enough for MOGD/PF recommendations to be trusted; the ledger is the
// evidence. The online-tuning follow-ups (MFTune, arXiv:2603.16450;
// arXiv:2309.01901) both start from per-workload drift detection — the
// `calib_drift` and `coverage_collapse` watchdog rules evaluate exactly the
// statistics maintained here.
//
// Durability is the run registry's: pairs append to calib.jsonl through a
// runlog.Journal, the durable JSONL log the registry and the watchdog's
// alert log share — size-rotated, IDs monotonic across restarts
// ("obs-000001"), a half-written final line repaired at reopen — and
// reopening replays every complete pair back into the rolling windows so
// calibration state survives process restarts.
//
// Performance contract: Observe updates the in-memory windows synchronously
// (fixed-size rings, reused sort scratch, metric instruments resolved once
// per series — the window-add path is allocation-free, enforced by
// BenchmarkCalibWindowAdd) and hands JSON encoding and the disk write to the
// journal's background writer, so callers never wait on I/O.
package calib

import (
	"errors"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/runlog"
	"repro/internal/telemetry"
)

// relEps floors the denominator of relative errors so observed outcomes near
// zero don't blow the statistics up.
const relEps = 1e-9

// DefaultWindow is the rolling-window size (pairs per workload+objective)
// used when Options.Window <= 0.
const DefaultWindow = 64

// DefaultZ is the half-width multiplier of the uncertainty interval used for
// coverage when Options.Z <= 0: predicted ± 1.96·std, the central 95%
// interval of a Gaussian predictive distribution.
const DefaultZ = 1.96

// ErrNoOverlap is returned by Observe when an outcome shares no objective
// with the prediction it was matched to — nothing to calibrate.
var ErrNoOverlap = errors.New("calib: outcome shares no objective with the prediction")

// Pair is one matched prediction–outcome record, the unit of calib.jsonl.
// Predicted/Std come from the run-registry record the outcome was joined to
// (user-facing orientation, std absent for exact objectives); Actual is the
// measured outcome in the same units; RelErr the signed relative error
// (actual-predicted)/max(|actual|, eps) per joined objective.
type Pair struct {
	ID        string             `json:"id"`
	Time      time.Time          `json:"time"`
	Run       string             `json:"run,omitempty"`
	TraceRun  string             `json:"trace_run,omitempty"`
	Workload  string             `json:"workload"`
	Served    string             `json:"served,omitempty"`
	Predicted map[string]float64 `json:"predicted"`
	Std       map[string]float64 `json:"predicted_std,omitempty"`
	Actual    map[string]float64 `json:"actual"`
	RelErr    map[string]float64 `json:"rel_err,omitempty"`
}

// Options tunes a ledger.
type Options struct {
	// Window is the rolling calibration window in pairs per
	// workload+objective (<= 0 uses DefaultWindow).
	Window int
	// Z is the uncertainty-interval half-width in standard deviations used
	// for coverage (<= 0 uses DefaultZ).
	Z float64
	// MaxBytes / Keep bound the active JSONL file and the rotation chain,
	// exactly as in runlog.Options.
	MaxBytes int64
	Keep     int
	// Buffer is the async write queue depth (<= 0 uses 256). A full queue
	// makes Observe block until the worker drains — backpressure, not loss.
	Buffer int
	// Telemetry, when non-nil, receives the udao_calib_* instruments.
	Telemetry *telemetry.Telemetry
	// Now is a test hook for pair timestamps (nil uses time.Now).
	Now func() time.Time
}

// Ledger is the durable prediction–outcome ledger plus the in-memory rolling
// calibration windows. The embedded journal provides Err (the calibration
// half of the service's readiness gate), Sync and Close. Safe for concurrent
// use.
type Ledger struct {
	*runlog.Journal[Pair]
	window int
	z      float64
	now    func() time.Time
	tel    *telemetry.Telemetry

	mu         sync.Mutex
	series     map[string]*series // workload\x00objective
	byWorkload map[string][]*series
	count      int
	nameBuf    []string // reused scratch for deterministic objective order

	cPairs *telemetry.Counter
	hAbs   *telemetry.Histogram
}

func pairID(p *Pair) *string { return &p.ID }

// Open loads the ledger at path (rotated files oldest-first, then the active
// file), replays every complete pair into the rolling windows, repairs a
// half-written final line, and starts the background writer.
func Open(path string, opts Options) (*Ledger, error) {
	l := &Ledger{
		window:     opts.Window,
		z:          opts.Z,
		now:        opts.Now,
		tel:        opts.Telemetry,
		series:     map[string]*series{},
		byWorkload: map[string][]*series{},
	}
	if l.window <= 0 {
		l.window = DefaultWindow
	}
	if l.z <= 0 {
		l.z = DefaultZ
	}
	if l.now == nil {
		l.now = time.Now
	}
	if l.tel != nil {
		l.cPairs = l.tel.Metrics.Counter(telemetry.MetricCalibPairs)
		l.hAbs = l.tel.Metrics.Histogram(telemetry.MetricCalibAbsErr, "", nil)
	}
	jopts := runlog.Options{MaxBytes: opts.MaxBytes, Keep: opts.Keep, Buffer: opts.Buffer}
	j, err := runlog.OpenJournal(path, "obs", jopts, pairID, func(p Pair) { l.absorbLocked(&p) })
	if err != nil {
		return nil, err
	}
	l.Journal = j
	return l, nil
}

// Observe validates, stamps and records one prediction–outcome pair: signed
// relative errors are computed for every objective present in both Predicted
// and Actual, the pair is absorbed into the rolling windows (publishing the
// udao_calib_* instruments), and the disk write is queued. The returned pair
// carries the assigned ID and computed errors. Returns ErrNoOverlap when no
// objective joins. The ledger owns p from the call on: the writer encodes it
// later, so the caller must not modify what it refers to. Disk errors
// surface asynchronously via Err; a closed ledger rejects p and leaves the
// windows unchanged.
func (l *Ledger) Observe(p Pair) (Pair, error) {
	joined := false
	for name := range p.Actual {
		if _, ok := p.Predicted[name]; ok {
			joined = true
			break
		}
	}
	if !joined {
		return p, ErrNoOverlap
	}
	err := l.Append(&p, func(p *Pair) {
		l.mu.Lock()
		defer l.mu.Unlock()
		if p.Time.IsZero() {
			p.Time = l.now()
		}
		l.absorbLocked(p)
	})
	return p, err
}

// absorbLocked computes/refreshes the pair's relative errors and feeds every
// joined objective's rolling window. Iteration is in sorted objective order
// so series creation (and therefore metric registration) is deterministic.
func (l *Ledger) absorbLocked(p *Pair) {
	l.nameBuf = joinedObjectives(p, l.nameBuf)
	if len(l.nameBuf) == 0 {
		return
	}
	if p.RelErr == nil {
		p.RelErr = make(map[string]float64, len(l.nameBuf))
	}
	for _, name := range l.nameBuf {
		sm := score(p, name, l.z)
		p.RelErr[name] = sm.signed
		l.seriesLocked(p.Workload, name).add(sm, p.Run)
		if l.hAbs != nil {
			l.hAbs.Observe(sm.abs)
		}
	}
	l.count++
	if l.cPairs != nil {
		l.cPairs.Inc()
	}
}

// joinedObjectives returns, sorted, the objectives p both predicted and
// measured, reusing buf's storage.
func joinedObjectives(p *Pair, buf []string) []string {
	buf = buf[:0]
	for name := range p.Actual {
		if _, ok := p.Predicted[name]; ok {
			buf = append(buf, name)
		}
	}
	sort.Strings(buf)
	return buf
}

// score is the calibration sample of one joined objective of p: the signed
// relative error (actual-predicted)/max(|actual|, eps) and, when the
// prediction carried a std, whether the outcome fell inside the z·std
// interval.
func score(p *Pair, name string, z float64) sample {
	actual, pred := p.Actual[name], p.Predicted[name]
	signed := (actual - pred) / math.Max(math.Abs(actual), relEps)
	sm := sample{signed: signed, abs: math.Abs(signed)}
	if std, ok := p.Std[name]; ok && std > 0 {
		sm.hasStd = true
		sm.covered = math.Abs(actual-pred) <= z*std
	}
	return sm
}

func (l *Ledger) seriesLocked(workload, objective string) *series {
	key := workload + "\x00" + objective
	s, ok := l.series[key]
	if !ok {
		s = newSeries(workload, objective, l.window, l.tel)
		l.series[key] = s
		l.byWorkload[workload] = append(l.byWorkload[workload], s)
	}
	return s
}

// Calibration returns the rolling-window stats of every objective series of
// one workload, sorted by objective name. Empty when the workload has no
// observed outcomes.
func (l *Ledger) Calibration(workload string) []ObjectiveStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	ss := l.byWorkload[workload]
	out := make([]ObjectiveStats, 0, len(ss))
	for _, s := range ss {
		out = append(out, s.stats)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Objective < out[j].Objective })
	return out
}

// Workloads returns the distinct workloads with observed outcomes, sorted.
func (l *Ledger) Workloads() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.byWorkload))
	for w := range l.byWorkload {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// Window returns the configured rolling-window size.
func (l *Ledger) Window() int { return l.window }

// Len returns the number of pairs absorbed (loaded + observed).
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Load reads every complete pair from the ledger files at path (rotated
// oldest-first, then the active file) without opening them for writing — the
// offline access path used by udao-traceview calib. A missing active file
// with no rotated siblings is an error.
func Load(path string) ([]Pair, error) { return runlog.LoadJournal(path, pairID) }
