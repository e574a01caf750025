// Command udao-traceview renders reports from udao-server's observability
// surfaces. The default (report) mode is offline: it reads the run registry
// (-runs runs.jsonl, written on every /optimize) and the telemetry trace
// sink (-trace trace.jsonl, one JSON line per trace event) — plain JSONL
// files, rotated siblings (file.1, file.2, …) included — and needs no
// running server. The watch mode is live: it polls a running server's
// /metrics and /alerts endpoints into a refreshing terminal dashboard.
//
//	udao-traceview -runs runs.jsonl                      dashboard summary
//	udao-traceview -runs runs.jsonl -workload q1-w001    quality series + regressions
//	udao-traceview report -runs runs.jsonl -trace trace.jsonl run-000003
//	                                                     one run end to end:
//	                                                     quality, expand
//	                                                     trajectory, per-phase
//	                                                     span timeline
//	udao-traceview watch -url http://127.0.0.1:8080      live dashboard
//	udao-traceview calib -ledger calib.jsonl             prediction-vs-outcome
//	                                                     calibration: MAPE, bias,
//	                                                     interval coverage per
//	                                                     workload+objective
//	udao-traceview calib -ledger calib.jsonl -workload q1-w001
//	                                                     drill-down: recent pairs
//	                                                     + drift trajectory
//
// For runs recorded with span-level tracing the per-run report shows an
// exact per-phase timeline (self time per phase from the span tree rooted
// at the run's root span); older traces without span IDs get a one-line
// note instead.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/runlog"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "udao-traceview:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "watch":
			return watchCmd(args[1:], out)
		case "calib":
			return calibCmd(args[1:], out)
		case "report":
			// "report <run>" is the spelled-out form of the positional run ID.
			args = args[1:]
		}
	}
	fs := flag.NewFlagSet("udao-traceview", flag.ContinueOnError)
	fs.SetOutput(out)
	runsPath := fs.String("runs", "runs.jsonl", "run registry JSONL (rotated siblings are read too)")
	tracePath := fs.String("trace", "", "telemetry trace-sink JSONL; enables the per-phase breakdown")
	workload := fs.String("workload", "", "report the quality series of one workload instead of the dashboard")
	if err := fs.Parse(args); err != nil {
		return err
	}
	recs, err := runlog.Load(*runsPath)
	if err != nil {
		return fmt.Errorf("loading run registry %s: %w", *runsPath, err)
	}
	if len(recs) == 0 {
		return fmt.Errorf("run registry %s holds no records", *runsPath)
	}
	switch {
	case fs.NArg() >= 1:
		events, err := loadTrace(*tracePath)
		if err != nil {
			return err
		}
		return runReport(out, recs, events, fs.Arg(0))
	case *workload != "":
		return workloadReport(out, recs, *workload)
	default:
		return dashboard(out, recs)
	}
}

// loadTrace reads the trace sink and its rotated siblings (oldest first) into
// one event slice. A missing path ("" or nonexistent) is not an error — the
// per-phase breakdown is simply skipped.
func loadTrace(path string) ([]telemetry.Event, error) {
	if path == "" {
		return nil, nil
	}
	var events []telemetry.Event
	paths, err := runlog.RotationChain(path)
	if err != nil {
		return nil, fmt.Errorf("listing trace sink %s: %w", path, err)
	}
	seen := false
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return nil, fmt.Errorf("opening trace sink %s: %w", p, err)
		}
		seen = true
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
		for sc.Scan() {
			var e telemetry.Event
			if err := json.Unmarshal(sc.Bytes(), &e); err == nil && e.Scope != "" {
				events = append(events, e)
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("reading trace sink %s: %w", p, err)
		}
	}
	if !seen {
		return nil, fmt.Errorf("trace sink %s not found", path)
	}
	return events, nil
}

// runReport renders one run end to end: the request, the answer quality, the
// incremental expand trajectory, and (when trace events are available) the
// per-phase time breakdown joined via the record's trace run ID.
func runReport(out io.Writer, recs []runlog.Record, events []telemetry.Event, id string) error {
	var rec *runlog.Record
	for i := range recs {
		if recs[i].ID == id {
			rec = &recs[i]
			break
		}
	}
	if rec == nil {
		return fmt.Errorf("no record %q in the registry (%d records; try the dashboard)", id, len(recs))
	}
	fmt.Fprintf(out, "run %s  %s\n", rec.ID, rec.Time.UTC().Format(time.RFC3339))
	fmt.Fprintf(out, "  workload    %s\n", rec.Workload)
	fmt.Fprintf(out, "  objectives  %s\n", strings.Join(rec.Objectives, ", "))
	fmt.Fprintf(out, "  space       %d vars (dim %d)\n", len(rec.Space.Vars), rec.Space.Dim)
	fmt.Fprintf(out, "  solve       %s  (%d model evals, %d memo hits, %d misses)\n",
		fmtSec(rec.SolveSec), rec.Evals, rec.MemoHits, rec.MemoMisses)
	if rec.TraceRunID != "" {
		fmt.Fprintf(out, "  trace run   %s\n", rec.TraceRunID)
	}

	q := rec.Quality
	fmt.Fprintf(out, "\nquality\n")
	fmt.Fprintf(out, "  frontier       %d points (coverage %d)\n", len(rec.Frontier), q.Coverage)
	fmt.Fprintf(out, "  hypervolume    %s\n", fmtQ(q.Hypervolume))
	fmt.Fprintf(out, "  uncertain      %s\n", fmtQ(q.UncertainFrac))
	if q.PrevRunID != "" {
		delta := fmtQ(q.HypervolumeDelta)
		if q.HypervolumeDelta > 0 {
			delta = "+" + delta
		}
		fmt.Fprintf(out, "  vs %s  hypervolume %s, consistency %s\n",
			q.PrevRunID, delta, fmtQ(q.Consistency))
	}

	if len(rec.Expands) > 0 {
		fmt.Fprintf(out, "\nexpand trajectory (hypervolume in the box of all plans probed so far)\n")
		fmt.Fprintf(out, "  %-5s %7s %9s %9s %12s %10s\n", "step", "probes", "total", "frontier", "hypervolume", "uncertain")
		for i, st := range rec.Expands {
			fmt.Fprintf(out, "  %-5d %7d %9d %9d %12s %10s  %s\n",
				i+1, st.Probes, st.TotalProbes, st.Frontier, fmtQ(st.Hypervolume), fmtQ(st.UncertainFrac), fmtSec(st.ElapsedSec))
		}
	}

	if rec.TraceRunID != "" && len(events) > 0 {
		spanTimeline(out, events, rec)
	}
	return nil
}

// spanTimeline renders the per-phase self-time timeline from the run's span
// tree (telemetry.PhaseBreakdown): self times are wall-attributed — each
// instant goes to the deepest active span — so the rows sum to the request's
// root-span duration, directly comparable to the recorded wall time, while
// the total column is busy time and may exceed it. The
// record's root span ID carves this request's subtree out of a trace run
// shared by several requests against one cached optimizer.
//
// A run without events in the sink, or whose events carry no span of this
// request (a sink written before span tracing), gets a one-line note instead.
func spanTimeline(out io.Writer, events []telemetry.Event, rec *runlog.Record) {
	var runEvents []telemetry.Event
	spans := 0
	for _, e := range events {
		if e.Run != rec.TraceRunID {
			continue
		}
		runEvents = append(runEvents, e)
		if e.Span != 0 {
			spans++
		}
	}
	if len(runEvents) == 0 {
		fmt.Fprintf(out, "\nno trace events for run %s in the sink (ring may have rotated past it)\n", rec.TraceRunID)
		return
	}
	rows, total := telemetry.PhaseBreakdown(runEvents, rec.RootSpan)
	if len(rows) == 0 {
		fmt.Fprintf(out, "\nno phase timeline: the sink's %d trace events for run %s carry no spans of this request\n", len(runEvents), rec.TraceRunID)
		return
	}
	fmt.Fprintf(out, "\nper-phase timeline (%d spans; self times sum to %s of %s recorded wall time)\n",
		spans, fmtSec(total.Seconds()), fmtSec(rec.SolveSec))
	fmt.Fprintf(out, "  %-12s %6s %10s %10s %6s  %s\n", "phase", "spans", "total", "self", "self%", "")
	for _, r := range rows {
		frac := 0.0
		if total > 0 {
			frac = r.Self.Seconds() / total.Seconds()
		}
		bar := strings.Repeat("#", int(frac*24+0.5))
		fmt.Fprintf(out, "  %-12s %6d %10s %10s %5.1f%%  %s\n",
			r.Phase, r.Spans, fmtSec(r.Total.Seconds()), fmtSec(r.Self.Seconds()), 100*frac, bar)
	}
}

// workloadReport renders the quality-over-time series of one workload and
// flags regressions between consecutive runs: a hypervolume drop, a
// consistency breach (an earlier frontier point lost), or a solve-time jump.
func workloadReport(out io.Writer, recs []runlog.Record, workload string) error {
	var series []runlog.Record
	for _, r := range recs {
		if r.Workload == workload {
			series = append(series, r)
		}
	}
	if len(series) == 0 {
		return fmt.Errorf("no recorded runs for workload %q", workload)
	}
	fmt.Fprintf(out, "workload %s — %d runs\n", workload, len(series))
	fmt.Fprintf(out, "  %-12s %-20s %9s %12s %12s %10s  %s\n",
		"run", "time", "frontier", "hypervolume", "consistency", "solve", "flags")
	regressions := 0
	for i, r := range series {
		flags := regressionFlags(series, i)
		if flags != "" {
			regressions++
		}
		fmt.Fprintf(out, "  %-12s %-20s %9d %12s %12s %10s  %s\n",
			r.ID, r.Time.UTC().Format("2006-01-02T15:04:05Z"), len(r.Frontier),
			fmtQ(r.Quality.Hypervolume), fmtQ(r.Quality.Consistency), fmtSec(r.SolveSec), flags)
	}
	if regressions == 0 {
		fmt.Fprintf(out, "no regressions between consecutive runs\n")
	} else {
		fmt.Fprintf(out, "%d run(s) flagged\n", regressions)
	}
	return nil
}

// Regression thresholds: a hypervolume loss beyond noise, any positive
// consistency (PF must preserve earlier frontier points — §IV-A), and a
// solve-time jump against the previous run of the same workload.
const (
	hvDropTol       = 0.01
	consistencyTol  = 1e-9
	solveJumpFactor = 2.0
)

func regressionFlags(series []runlog.Record, i int) string {
	r := series[i]
	var flags []string
	if r.Quality.HypervolumeDelta != runlog.QualityUnknown && r.Quality.HypervolumeDelta < -hvDropTol {
		flags = append(flags, "hypervolume-drop")
	}
	if r.Quality.Consistency > consistencyTol {
		flags = append(flags, "inconsistent")
	}
	if i > 0 {
		prev := series[i-1]
		if prev.SolveSec > 0 && r.SolveSec > prev.SolveSec*solveJumpFactor {
			flags = append(flags, "slow")
		}
	}
	return strings.Join(flags, ",")
}

// dashboard summarizes the whole registry, one line per workload.
func dashboard(out io.Writer, recs []runlog.Record) error {
	type agg struct {
		workload   string
		runs       int
		latest     runlog.Record
		bestHV     float64
		totalSolve float64
		flagged    int
		series     []runlog.Record
	}
	byWl := map[string]*agg{}
	var order []string
	for _, r := range recs {
		a := byWl[r.Workload]
		if a == nil {
			a = &agg{workload: r.Workload, bestHV: runlog.QualityUnknown}
			byWl[r.Workload] = a
			order = append(order, r.Workload)
		}
		a.runs++
		a.latest = r
		a.totalSolve += r.SolveSec
		if r.Quality.Hypervolume > a.bestHV {
			a.bestHV = r.Quality.Hypervolume
		}
		a.series = append(a.series, r)
	}
	for _, a := range byWl {
		for i := range a.series {
			if regressionFlags(a.series, i) != "" {
				a.flagged++
			}
		}
	}
	sort.Strings(order)
	first, last := recs[0].Time, recs[len(recs)-1].Time
	fmt.Fprintf(out, "run registry: %d records, %d workloads, %s — %s\n",
		len(recs), len(order), first.UTC().Format(time.RFC3339), last.UTC().Format(time.RFC3339))
	fmt.Fprintf(out, "  %-14s %5s %12s %12s %10s %9s  %s\n",
		"workload", "runs", "latest hv", "best hv", "avg solve", "flagged", "latest run")
	for _, wl := range order {
		a := byWl[wl]
		fmt.Fprintf(out, "  %-14s %5d %12s %12s %10s %9d  %s\n",
			a.workload, a.runs, fmtQ(a.latest.Quality.Hypervolume), fmtQ(a.bestHV),
			fmtSec(a.totalSolve/float64(a.runs)), a.flagged, a.latest.ID)
	}
	return nil
}

// fmtQ renders a quality value, showing the QualityUnknown sentinel as "?".
func fmtQ(v float64) string {
	if v == runlog.QualityUnknown {
		return "?"
	}
	return fmt.Sprintf("%.4f", v)
}

// fmtSec renders seconds human-readably without losing sub-millisecond runs.
func fmtSec(s float64) string {
	switch {
	case s < 0:
		return "?"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
