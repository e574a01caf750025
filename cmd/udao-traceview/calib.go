package main

import (
	"flag"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/calib"
	"repro/internal/watch"
)

// calibDriftBuckets is the number of buckets of the drift trajectory.
const calibDriftBuckets = 10

// calibCmd renders the calibration report from a prediction–outcome ledger
// (calib.jsonl, written by POST /observe): per-workload/per-objective
// rolling-window stats, and with -workload a drill-down with the recent pairs
// and the drift trajectory.
func calibCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("udao-traceview calib", flag.ContinueOnError)
	fs.SetOutput(out)
	path := fs.String("ledger", "calib.jsonl", "calibration ledger JSONL (rotated siblings are read too)")
	workload := fs.String("workload", "", "drill into one workload: recent pairs and drift trajectory")
	window := fs.Int("window", 0, "rolling window in pairs (0 uses the ledger default 64)")
	recent := fs.Int("recent", 8, "pairs listed in the workload drill-down")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() >= 1 {
		*path = fs.Arg(0)
	}
	pairs, err := calib.Load(*path)
	if err != nil {
		return fmt.Errorf("loading calibration ledger %s: %w", *path, err)
	}
	if len(pairs) == 0 {
		return fmt.Errorf("calibration ledger %s holds no pairs", *path)
	}
	byWorkload := calib.Summarize(pairs, *window, 0)
	if *workload != "" {
		stats, ok := byWorkload[*workload]
		if !ok {
			return fmt.Errorf("no observed outcomes for workload %q (%d pairs total)", *workload, len(pairs))
		}
		return calibWorkload(out, *workload, stats, pairs, *recent)
	}
	return calibDashboard(out, *path, byWorkload, len(pairs))
}

// calibDashboard is the fleet view: one row per workload+objective series.
func calibDashboard(out io.Writer, path string, byWorkload map[string][]calib.ObjectiveStats, total int) error {
	workloads := make([]string, 0, len(byWorkload))
	for wl := range byWorkload {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	fmt.Fprintf(out, "udao calib — %s: %d pairs, %d workloads\n\n", path, total, len(workloads))
	fmt.Fprintf(out, "%-12s %-10s %11s %8s %8s %8s %8s %9s  %-12s %s\n",
		"workload", "objective", "pairs(win)", "mape", "bias", "p50", "p90", "coverage", "last run", "flags")
	for _, wl := range workloads {
		for _, st := range byWorkload[wl] {
			fmt.Fprintf(out, "%-12s %-10s %7d/%-3d %8s %8s %8s %8s %9s  %-12s %s\n",
				st.Workload, st.Objective, st.Pairs, st.Total,
				fmtPct(st.MAPE), fmtSignedPct(st.Bias), fmtPct(st.P50), fmtPct(st.P90),
				fmtCoverage(st), st.LastRun, calibFlags(st))
		}
	}
	fmt.Fprintf(out, "\nmape/bias are relative to the observed outcome; coverage is the share of\noutcomes inside the model's z-sigma interval (n/a without predictive std).\n")
	return nil
}

// calibWorkload is the drill-down: the workload's series stats, its recent
// pairs, and the drift trajectory (bucketed mean |rel err| over the pair
// stream, oldest bucket first) that shows WHEN calibration degraded.
func calibWorkload(out io.Writer, wl string, stats []calib.ObjectiveStats, pairs []calib.Pair, recent int) error {
	var mine []calib.Pair
	for _, p := range pairs {
		if p.Workload == wl {
			mine = append(mine, p)
		}
	}
	fmt.Fprintf(out, "udao calib — workload %s (%d pairs)\n\n", wl, len(mine))
	fmt.Fprintf(out, "%-10s %11s %8s %8s %8s %8s %9s  %s\n",
		"objective", "pairs(win)", "mape", "bias", "p50", "p90", "coverage", "flags")
	for _, st := range stats {
		fmt.Fprintf(out, "%-10s %7d/%-3d %8s %8s %8s %8s %9s  %s\n",
			st.Objective, st.Pairs, st.Total,
			fmtPct(st.MAPE), fmtSignedPct(st.Bias), fmtPct(st.P50), fmtPct(st.P90),
			fmtCoverage(st), calibFlags(st))
	}

	for _, st := range stats {
		buckets := calibDrift(mine, st.Objective)
		if len(buckets) < 2 {
			continue
		}
		max := 0.0
		for _, b := range buckets {
			if b.mape > max {
				max = b.mape
			}
		}
		fmt.Fprintf(out, "\ndrift %s (mean |rel err| per bucket of ~%d pairs, oldest first)\n",
			st.Objective, (len(mine)+len(buckets)-1)/len(buckets))
		for i, b := range buckets {
			bar := ""
			if max > 0 {
				bar = strings.Repeat("#", int(b.mape/max*24+0.5))
			}
			fmt.Fprintf(out, "  %2d %8s %4dp  %s\n", i+1, fmtPct(b.mape), b.n, bar)
		}
	}

	if recent > 0 && len(mine) > 0 {
		if recent > len(mine) {
			recent = len(mine)
		}
		fmt.Fprintf(out, "\nrecent pairs (newest last)\n")
		fmt.Fprintf(out, "  %-10s %-20s %-12s %-10s %-10s %10s %10s %8s\n",
			"id", "time", "run", "served", "objective", "predicted", "actual", "rel err")
		for _, p := range mine[len(mine)-recent:] {
			names := make([]string, 0, len(p.Actual))
			for n := range p.Actual {
				if _, ok := p.Predicted[n]; ok {
					names = append(names, n)
				}
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(out, "  %-10s %-20s %-12s %-10s %-10s %10.2f %10.2f %8s\n",
					p.ID, p.Time.UTC().Format(time.RFC3339), p.Run, p.Served, n,
					p.Predicted[n], p.Actual[n], fmtSignedPct(p.RelErr[n]))
			}
		}
	}
	return nil
}

type driftBucket struct {
	mape float64
	n    int
}

// calibDrift buckets one objective's pair stream into up to calibDriftBuckets
// sequential slices and returns each slice's mean absolute relative error.
func calibDrift(pairs []calib.Pair, objective string) []driftBucket {
	var errs []float64
	for _, p := range pairs {
		if e, ok := p.RelErr[objective]; ok {
			if e < 0 {
				e = -e
			}
			errs = append(errs, e)
		}
	}
	if len(errs) < 2 {
		return nil
	}
	nb := calibDriftBuckets
	if len(errs) < nb {
		nb = len(errs)
	}
	out := make([]driftBucket, 0, nb)
	for i := 0; i < nb; i++ {
		lo, hi := i*len(errs)/nb, (i+1)*len(errs)/nb
		if hi == lo {
			continue
		}
		sum := 0.0
		for _, e := range errs[lo:hi] {
			sum += e
		}
		out = append(out, driftBucket{mape: sum / float64(hi-lo), n: hi - lo})
	}
	return out
}

// calibFlags marks series the live watchdog rules would alert on, judged by
// the rules themselves.
func calibFlags(st calib.ObjectiveStats) string {
	var flags []string
	if _, drifted := watch.CalibDrift(st); drifted {
		flags = append(flags, "DRIFT")
	}
	if _, collapsed := watch.CoverageCollapse(st); collapsed {
		flags = append(flags, "LOW-COVERAGE")
	}
	return strings.Join(flags, ",")
}

func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

func fmtSignedPct(v float64) string { return fmt.Sprintf("%+.1f%%", 100*v) }

func fmtCoverage(st calib.ObjectiveStats) string {
	if st.Coverage == calib.CoverageUnknown {
		return "n/a"
	}
	return fmt.Sprintf("%d/%d=%.0f%%", int(st.Coverage*float64(st.CoveragePairs)+0.5), st.CoveragePairs, 100*st.Coverage)
}
