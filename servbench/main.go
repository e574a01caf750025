// Command servbench is the repository's end-to-end serving benchmark. It
// drives udao-server over HTTP with seeded, fixed-size request decks and
// prints one JSON result line; see README.md for the workloads, metrics and
// noise findings. Run it through run.sh from the repository root:
//
//	bash servbench/run.sh --workload hot-hits --seed 1 --seconds 10 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line the benchmark prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("servbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: hot-hits, cold-dnn or mixed-pipeline")
	seed := fs.Int64("seed", 1, "deck seed")
	seconds := fs.Int("seconds", 10, "sizes the measured phase: each workload sends a fixed quota of requests per second of it")
	traced := fs.Int("trace", 0, "0: end-to-end metrics from udao-server; 1: per-layer metrics from the in-process traced run")
	server := fs.String("server", "", "udao-server binary")
	state := fs.String("state", "", "directory for per-run server state")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" || *state == "" {
		return errors.New("-server and -state are required (run.sh passes them)")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	d, err := BuildDeck(*workload, *seed, *seconds)
	if err != nil {
		return err
	}
	startProc := func() (target, error) { return startServer(*server, *state, d.ServerArgs) }

	var res Result
	var base *RunResult
	if *traced == 0 {
		base, err = execute(d, d.setups(), startProc)
		if err != nil {
			return err
		}
		res.Metrics = endToEnd(base)
		printDiagnostics(stdout, d, base)
	} else {
		base, err = execute(d, 1, startProc)
		if err != nil {
			return err
		}
		tr, err := executeTraced(d, *state)
		if err != nil {
			return err
		}
		printDiagnostics(stdout, d, base)
		compareDigests(base, tr.Run)
		res.Metrics = perLayer(base, tr)
		printReconciliation(stdout, d, base, tr)
		if h, err := RestatedHash("."); err != nil || h != restatedHash {
			fmt.Fprintf(stdout, "warning restated_source_changed: code traced.go restates has changed (hash %s, traced.go matches %s, %v), so the per-layer figures may time an outdated composition\n", h, restatedHash, err)
		}
		base.Attempted += tr.Run.Attempted
		base.Failed += tr.Run.Failed
		base.fail(tr.Run.FirstErr)
	}
	program, err := fileHash(*server)
	if err != nil {
		return err
	}
	storePath := digestStorePath(filepath.Join(filepath.Dir(*state), "digests"), program, d)
	if err := checkStoredDigests(storePath, base); err != nil {
		return err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			base.fail(fmt.Errorf("metric %s has no samples", name))
			m.Value = 0
			res.Metrics[name] = m
		}
	}
	res.Attempted, res.Failed = base.Attempted, base.Failed
	res.Correct = base.FirstErr == nil && base.Failed == 0
	if base.FirstErr != nil {
		fmt.Fprintln(os.Stderr, "servbench: check failed:", base.FirstErr)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	return nil
}

// compareDigests fails the run for every traced answer that differs from
// the untraced answer to the same request.
func compareDigests(base, traced *RunResult) {
	for id, dg := range traced.Digests {
		if want, ok := base.Digests[id]; ok && want != dg {
			base.Failed++
			base.fail(fmt.Errorf("request %d: traced answer digest %s, untraced %s", id, dg, want))
		}
	}
	if len(traced.Digests) != len(base.Digests) {
		base.fail(fmt.Errorf("traced run answered %d requests, untraced %d", len(traced.Digests), len(base.Digests)))
	}
}

// digestStorePath names the file holding the answer digests of one deck as
// answered by one build of udao-server, so a run is only compared with
// earlier runs of the same program on the same requests: a change whose
// answers legitimately differ starts a store of its own.
func digestStorePath(dir, program string, d *Deck) string {
	return filepath.Join(dir, d.Fingerprint()+"-"+program+".json")
}

// fileHash returns a short hash of a file's content.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// checkStoredDigests compares this run's answer digests with those an
// earlier run of the same deck stored in this checkout, and stores them
// when no earlier run did.
func checkStoredDigests(path string, r *RunResult) error {
	prev := map[int]string{}
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		for id, dg := range r.Digests {
			if want, ok := prev[id]; ok && want != dg {
				r.Failed++
				r.fail(fmt.Errorf("request %d: answer digest %s differs from an earlier run's %s", id, dg, want))
			}
		}
		return nil
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	if r.FirstErr != nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err = json.Marshal(r.Digests)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sources picks, per disposition, the outcomes a workload's latency metrics
// come from: its measured phase where that phase has the disposition, else
// the set-up solves (hot-hits' solves) or the post-phase probe.
func sources(r *RunResult) (hits, solves, observes []float64) {
	hits = latencies(r.Measured, isHit)
	if len(hits) == 0 {
		hits = latencies(r.Probe, isHit)
	}
	solves = latencies(r.Measured, isSolve)
	if len(solves) == 0 {
		solves = latencies(r.SetupSolves, isSolve)
	}
	observes = latencies(r.Measured, isObserve)
	if len(observes) == 0 {
		observes = latencies(r.Probe, isObserve)
	}
	return hits, solves, observes
}

func endToEnd(r *RunResult) map[string]Metric {
	hits, solves, _ := sources(r)
	p50, _ := Percentile(hits, 0.5)
	p90, _ := Percentile(hits, 0.9)
	var ok int
	var unc []float64
	for i := range r.Measured {
		o := &r.Measured[i]
		if !o.OK() {
			continue
		}
		ok++
		if !o.Observe {
			unc = append(unc, o.Uncertain)
		}
	}
	return map[string]Metric{
		"setup_s":               {Median(r.SetupSec), "s"},
		"hit_p50_ms":            {p50, "ms"},
		"hit_p90_ms":            {p90, "ms"},
		"solve_p50_ms":          {Median(solves), "ms"},
		"throughput_rps":        {float64(ok) / r.MeasWall.Seconds(), "req/s"},
		"server_cpu_ms_per_req": {float64(r.CPUTicks) * 1000 / clockTicks / float64(len(r.Measured)), "ms"},
		"server_rss_mb":         {float64(r.HWMKB) / 1024, "MiB"},
		"uncertain_frac":        {Mean(unc), "fraction"},
	}
}

// printDiagnostics prints the per-run diagnostics, which are recorded
// beside the metrics and not gated.
func printDiagnostics(w io.Writer, d *Deck, r *RunResult) {
	hits, solves, observes := sources(r)
	diag := map[string]any{
		"workload":                d.Workload,
		"setup_s_each":            r.SetupSec,
		"steal_frac_measured":     r.StealMeas,
		"steal_frac_run":          r.StealRun,
		"alerts":                  r.Alerts,
		"watchdog_sweeps":         r.Sweeps,
		"warmup_requests":         len(r.Warm),
		"measured_per_conn":       r.PerConn,
		"conn_overlap_s":          r.Overlap.Seconds(),
		"measured_wall_s":         r.MeasWall.Seconds(),
		"hit_samples":             len(hits),
		"hit_p90_beyond":          Beyond(len(hits), 0.9),
		"solve_samples":           len(solves),
		"observe_samples":         len(observes),
		"observe_p50_ms":          Median(observes),
		"servers_measuring":       d.servers(),
		"server_age_last_solve_s": r.LastSolveAge,
		"server_age_alerts_s":     r.AlertsAge,
		"run_wall_s":              r.Wall.Seconds(),
		"attempted":               r.Attempted,
		"failed":                  r.Failed,
		"server_cpu_ms_total":     float64(r.CPUTicks) * 1000 / clockTicks,
		"machine_ref_ms":          r.Ref,
	}
	b, _ := json.Marshal(diag)
	fmt.Fprintf(w, "diagnostics %s\n", b)
}
