package watch

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// FlightConfig tunes the triggered flight recorder. Dir is the bundle root;
// empty disables capture entirely.
type FlightConfig struct {
	Dir string
	// CPUProfileDur bounds the CPU profile captured per bundle (default
	// 250ms; <= 0 keeps the default, and a negative MinInterval disables the
	// CPU profile so tests stay fast). The capture blocks the watchdog sweep
	// for this long — it is deliberately short: the point is the state at
	// alert time, not a full profiling session.
	CPUProfileDur time.Duration
	// MaxBundles bounds the bundle directories kept on disk; the oldest are
	// pruned (default 8).
	MaxBundles int
	// MinInterval rate-limits captures: alerts raised within MinInterval of
	// the previous capture share no bundle (default 1m). Negative also
	// disables the CPU profile (test hook).
	MinInterval time.Duration
}

func (c *FlightConfig) defaults() {
	if c.CPUProfileDur <= 0 {
		c.CPUProfileDur = 250 * time.Millisecond
	}
	if c.MaxBundles <= 0 {
		c.MaxBundles = 8
	}
	if c.MinInterval == 0 {
		c.MinInterval = time.Minute
	}
}

// flightRecorder captures one bounded diagnostic bundle per (rate-limited)
// alert:
//
//	<dir>/<alert-id>/
//	    alert.json      the triggering alert
//	    cpu.pprof       CPU profile over CPUProfileDur
//	    heap.pprof      heap profile at capture time
//	    goroutine.pprof goroutine dump at capture time
//	    trace.jsonl     trace-ring snapshot of the offending run
//	                    (every buffered run when the alert names none)
//
// Capture runs on the watchdog goroutine — the cost is bounded by
// CPUProfileDur plus a few profile writes, and a capture failure degrades to
// an alert without a bundle, never to a lost alert.
type flightRecorder struct {
	cfg  FlightConfig
	tel  *telemetry.Telemetry
	now  func() time.Time
	last time.Time
}

func newFlightRecorder(cfg FlightConfig, tel *telemetry.Telemetry, now func() time.Time) *flightRecorder {
	cfg.defaults()
	return &flightRecorder{cfg: cfg, tel: tel, now: now}
}

// capture writes one bundle for the alert, returning its directory. An empty
// dir with nil error means the capture was rate-limited.
func (f *flightRecorder) capture(a Alert) (string, error) {
	now := f.now()
	if !f.last.IsZero() && f.cfg.MinInterval > 0 && now.Sub(f.last) < f.cfg.MinInterval {
		return "", nil
	}
	f.last = now

	dir := filepath.Join(f.cfg.Dir, a.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}

	// alert.json first: even a partially failed capture identifies itself.
	if b, err := json.MarshalIndent(a, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(dir, "alert.json"), append(b, '\n'), 0o644)
	}

	// CPU profile. StartCPUProfile fails if a profile is already running
	// (e.g. the operator attached first) — then the rest of the bundle is
	// still captured.
	if f.cfg.MinInterval >= 0 {
		if cf, err := os.Create(filepath.Join(dir, "cpu.pprof")); err == nil {
			if err := pprof.StartCPUProfile(cf); err == nil {
				time.Sleep(f.cfg.CPUProfileDur)
				pprof.StopCPUProfile()
			}
			_ = cf.Close()
		}
	}

	if hf, err := os.Create(filepath.Join(dir, "heap.pprof")); err == nil {
		_ = pprof.WriteHeapProfile(hf)
		_ = hf.Close()
	}
	if gf, err := os.Create(filepath.Join(dir, "goroutine.pprof")); err == nil {
		_ = pprof.Lookup("goroutine").WriteTo(gf, 0)
		_ = gf.Close()
	}

	if err := f.writeTrace(dir, a.TraceRun); err != nil {
		return dir, err
	}
	f.prune()
	return dir, nil
}

// writeTrace snapshots the trace ring into trace.jsonl: the named run when
// the alert implicates one, every buffered run otherwise. Every run comes
// from one ring snapshot, grouped by run in order of first appearance with
// each run's events in emission order; events that belong to no run are
// left out, as Runs leaves them out.
func (f *flightRecorder) writeTrace(dir, run string) error {
	tf, err := os.Create(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		return err
	}
	defer tf.Close()
	enc := json.NewEncoder(tf)
	for _, group := range groupByRun(f.tel.Trace.Events(run)) {
		for _, e := range group {
			if err := enc.Encode(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// groupByRun splits events by run, runs in order of first appearance,
// dropping events without a run.
func groupByRun(events []telemetry.Event) [][]telemetry.Event {
	index := map[string]int{}
	var groups [][]telemetry.Event
	for _, e := range events {
		if e.Run == "" {
			continue
		}
		g, ok := index[e.Run]
		if !ok {
			g = len(groups)
			index[e.Run] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], e)
	}
	return groups
}

// prune drops the oldest bundle directories beyond MaxBundles. Bundle names
// carry a monotonic sequence number, so lexical order is capture order.
func (f *flightRecorder) prune() {
	entries, err := os.ReadDir(f.cfg.Dir)
	if err != nil {
		return
	}
	var dirs []string
	for _, e := range entries {
		if e.IsDir() {
			dirs = append(dirs, e.Name())
		}
	}
	if len(dirs) <= f.cfg.MaxBundles {
		return
	}
	sort.Strings(dirs)
	for _, d := range dirs[:len(dirs)-f.cfg.MaxBundles] {
		_ = os.RemoveAll(filepath.Join(f.cfg.Dir, d))
	}
}
