// Package telemetry is the observability substrate of the repository: a
// dependency-free metrics registry (atomic counters, gauges and fixed-bucket
// histograms with estimated p50/p95/p99), a structured solver-event trace
// (ring-buffered, with an optional JSONL sink), and HTTP middleware that ties
// both to the service layer.
//
// The paper's whole evaluation story (§VI, Figs. 4–5, 8) is about watching
// the optimizer work — uncertain-space percentage over time, solving time per
// subspace, model-evaluation cost. This package is the substrate that makes
// those quantities observable in the running system: the optimizer stack
// (problem.Evaluator, solver/mogd, core, the moo baselines, the model server)
// feeds instruments and trace events through a shared *Telemetry handle, the
// service exposes them over /metrics (Prometheus text), /debug/trace (run
// replay) and expvar, and one `/optimize` call can be reconstructed end to
// end through its run ID.
//
// Performance contract: a nil *Telemetry disables everything; with telemetry
// attached at the default sampling level (LevelRun), hot loops pay only
// atomic counter additions — trace events are emitted at unit-of-work
// granularity (a Solve, a probe, a batch), never per iteration or per model
// pass, so the PR-1/PR-2 zero-allocation hot paths stay allocation-free.
// Every event emission is guarded by an atomic level check (Tracer.Enabled).
package telemetry

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"
)

// Standard metric names fed by the optimizer stack. They are pre-registered
// by New so a /metrics scrape is complete before any traffic arrives.
const (
	MetricHTTPRequests   = "udao_http_requests_total"
	MetricHTTPLatency    = "udao_http_latency_seconds"
	MetricModelEvals     = "udao_model_evals_total"
	MetricMemoHits       = "udao_memo_hits_total"
	MetricMemoMisses     = "udao_memo_misses_total"
	MetricEvalBatches    = "udao_eval_batches_total"
	MetricEvalBatchTime  = "udao_eval_batch_seconds"
	MetricEvalBatchPts   = "udao_eval_batch_points_total"
	MetricMOGDIterations = "udao_mogd_iterations_total"
	MetricMOGDClamps     = "udao_mogd_clamps_total"
	MetricMOGDSolves     = "udao_mogd_solves_total"
	MetricMOGDInfeasible = "udao_mogd_infeasible_total"
	MetricPFProbes       = "udao_pf_probes_total"
	MetricPFExpansions   = "udao_pf_expansions_total"
	MetricPFUncertain    = "udao_pf_uncertain_frac"
	MetricModelTrainings = "udao_model_trainings_total"
	MetricModelTrainTime = "udao_model_train_seconds"
)

// Nothing feeds MetricMOGDCacheHit and MetricMOGDCacheMiss, and New does not
// register them: MOGD replays no subproblems, because a PF run poses each
// ε-constraint box once. They stay declared for servbench's per-layer
// report, which reads them as zero.
const (
	MetricMOGDCacheHit  = "udao_mogd_subcache_hits_total"
	MetricMOGDCacheMiss = "udao_mogd_subcache_misses_total"
)

// Frontier-quality and run-registry metric names, fed by the service layer
// on every recorded /optimize call (PR: run registry + frontier-quality
// observability). The gauges also appear broken out per workload, e.g.
// udao_frontier_hypervolume{workload="q10-w009"}.
const (
	MetricFrontierHypervolume = "udao_frontier_hypervolume"
	MetricFrontierCoverage    = "udao_frontier_coverage"
	MetricRunQualityDelta     = "udao_run_quality_delta"
	MetricSolveLatency        = "udao_solve_seconds"
	MetricSolveSLOOk          = "udao_solve_slo_ok_total"
	MetricSolveSLOBreach      = "udao_solve_slo_breach_total"
	MetricRunRecords          = "udao_run_records_total"
	MetricRunRecordErrors     = "udao_run_record_errors_total"
)

// Span/phase and watchdog metric names (PR: span-attributed timelines +
// watchdog). MetricPhaseSeconds appears per phase, e.g.
// udao_phase_seconds{phase="mogd"} — the self-time (exclusive of child spans)
// one /optimize call spent in that part of the stack.
const (
	MetricPhaseSeconds  = "udao_phase_seconds"
	MetricWatchEvals    = "udao_watch_evals_total"
	MetricWatchAlerts   = "udao_watch_alerts_total"
	MetricWatchLastEval = "udao_watch_last_eval_unix"
)

// Serving-path metric names (PR: high-throughput serving). The sharded
// frontier cache, the singleflight coalescer and the admission gate feed
// these; udao_shed_total additionally appears per reason, e.g.
// udao_shed_total{reason="admission"}, and the eviction counter per cause
// (udao_serving_cache_evictions_total{reason="lru"|"ttl"}).
// MetricMOGDCacheNear counts MOGD near warm-starts: batch probes seeded from
// the nearest ε-constraint box the solver solved before (see
// mogd.Config.NearStarts).
const (
	MetricServingRequests  = "udao_serving_requests_total"
	MetricServingHits      = "udao_serving_cache_hits_total"
	MetricServingMisses    = "udao_serving_cache_misses_total"
	MetricServingExpands   = "udao_serving_cache_expands_total"
	MetricServingCoalesced = "udao_serving_coalesced_total"
	MetricServingEvictions = "udao_serving_cache_evictions_total"
	MetricServingEntries   = "udao_serving_cache_entries"
	MetricServingInflight  = "udao_serving_inflight_solves"
	MetricShed             = "udao_shed_total"
	MetricMOGDCacheNear    = "udao_pf_subcache_near_hits_total"
)

// Calibration and warm-up metric names (PR: prediction–outcome ledger).
// internal/calib feeds the udao_calib_* instruments on every observed
// outcome; the gauges additionally appear per workload and objective, e.g.
// udao_calib_mape{workload="q1",objective="latency"} — rolling-window values
// over the last -calib-window pairs. MetricServingWarmup counts serving-cache
// entries primed from the run registry at boot (-warm-cache).
const (
	MetricServingWarmup = "udao_serving_warmup_total"
	MetricCalibPairs    = "udao_calib_pairs_total"
	MetricCalibMAPE     = "udao_calib_mape"
	MetricCalibBias     = "udao_calib_bias"
	MetricCalibCoverage = "udao_calib_coverage"
	MetricCalibAbsErr   = "udao_calib_abs_rel_err"
)

// Telemetry bundles the two observability channels handed to instrumented
// components: the metrics registry and the event trace. A nil *Telemetry is
// valid everywhere and means "not instrumented".
type Telemetry struct {
	Metrics *Registry
	Trace   *Tracer

	runSeq atomic.Uint64
}

// New builds a Telemetry with a fresh registry (standard instruments
// pre-registered) and a tracer at the default sampling level.
func New() *Telemetry {
	t := &Telemetry{Metrics: NewRegistry(), Trace: NewTracer(0)}
	t.registerStandard()
	return t
}

// registerStandard creates the metric families the optimizer stack feeds, so
// they appear on /metrics (at zero) before the first request.
func (t *Telemetry) registerStandard() {
	r := t.Metrics
	r.Counter(MetricHTTPRequests, "HTTP requests served (also broken out by route and status code)")
	r.Histogram(MetricHTTPLatency, "HTTP request latency in seconds", nil)
	r.Counter(MetricModelEvals, "model passes performed by evaluators")
	r.Counter(MetricMemoHits, "evaluator memoization cache hits")
	r.Counter(MetricMemoMisses, "evaluator memoization cache misses")
	r.Counter(MetricEvalBatches, "evaluator batch evaluations")
	r.Histogram(MetricEvalBatchTime, "evaluator batch latency in seconds", nil)
	r.Counter(MetricEvalBatchPts, "points evaluated through the batched matrix path")
	r.Counter(MetricMOGDIterations, "MOGD Adam iterations executed")
	r.Counter(MetricMOGDClamps, "MOGD boundary clamps applied")
	r.Counter(MetricMOGDSolves, "MOGD constrained solves completed")
	r.Counter(MetricMOGDInfeasible, "MOGD solves that found no feasible point")
	r.Counter(MetricPFProbes, "Progressive Frontier probes issued")
	r.Counter(MetricPFExpansions, "Progressive Frontier Expand calls completed")
	r.Gauge(MetricPFUncertain, "uncertain fraction of the last reported PF run")
	r.Counter(MetricModelTrainings, "model server trainings")
	r.Histogram(MetricModelTrainTime, "model server training latency in seconds", nil)
	r.Gauge(MetricFrontierHypervolume, "hypervolume of the last recorded frontier (also per workload)")
	r.Gauge(MetricFrontierCoverage, "Pareto points of the last recorded frontier (also per workload)")
	r.Gauge(MetricRunQualityDelta, "hypervolume delta of the last recorded run vs its predecessor (also per workload)")
	r.Histogram(MetricSolveLatency, "end-to-end /optimize solve latency in seconds (also per workload)", nil)
	r.Counter(MetricSolveSLOOk, "solves that met the latency SLO (also per workload)")
	r.Counter(MetricSolveSLOBreach, "solves that missed the latency SLO (also per workload)")
	r.Counter(MetricRunRecords, "runs appended to the run registry")
	r.Counter(MetricRunRecordErrors, "run-registry appends that failed")
	r.Histogram(MetricPhaseSeconds, "per-phase self time of one /optimize call in seconds (per phase label)", nil)
	r.Counter(MetricWatchEvals, "watchdog rule-evaluation sweeps completed")
	r.Counter(MetricWatchAlerts, "watchdog alerts raised (also per rule)")
	r.Gauge(MetricWatchLastEval, "unix time of the watchdog's last rule evaluation")
	r.Counter(MetricServingRequests, "requests admitted into the serving cache path")
	r.Counter(MetricServingHits, "serving-cache requests answered from a cached frontier")
	r.Counter(MetricServingMisses, "serving-cache requests that had to build and solve")
	r.Counter(MetricServingExpands, "serving-cache requests answered by resuming Expand on a cached run")
	r.Counter(MetricServingCoalesced, "requests coalesced onto another request's in-flight solve")
	r.Counter(MetricServingEvictions, "serving-cache entries evicted (also per reason: lru, ttl)")
	r.Gauge(MetricServingEntries, "optimizer entries currently held by the serving cache")
	r.Gauge(MetricServingInflight, "solves currently holding an admission slot")
	r.Counter(MetricShed, "requests shed by admission control (also per reason)")
	r.Counter(MetricMOGDCacheNear, "MOGD near warm-starts (batch probes seeded from the nearest previously solved box)")
	r.Counter(MetricServingWarmup, "serving-cache entries primed from the run registry at boot")
	r.Counter(MetricCalibPairs, "prediction-outcome pairs appended to the calibration ledger (also per workload+objective)")
	r.Gauge(MetricCalibMAPE, "rolling-window mean absolute relative prediction error per workload+objective")
	r.Gauge(MetricCalibBias, "rolling-window mean signed relative prediction error per workload+objective")
	r.Gauge(MetricCalibCoverage, "rolling-window fraction of outcomes inside the model's z-sigma uncertainty interval per workload+objective")
	r.Histogram(MetricCalibAbsErr, "absolute relative prediction error of observed outcomes", nil)
}

// Labeled renders the conventional single-label series name,
// e.g. Labeled(MetricSolveLatency, "workload", "q1") =
// `udao_solve_seconds{workload="q1"}`. The registry groups labeled series
// with their base family on /metrics (see baseName).
func Labeled(name, label, value string) string {
	return name + "{" + label + `="` + labelEscaper.Replace(value) + `"}`
}

// Labeled2 renders the two-label variant of Labeled — label order is part of
// the series identity, so all feeders of a family must agree on it.
// Labeled2(MetricCalibMAPE, "workload", "q1", "objective", "latency") =
// `udao_calib_mape{workload="q1",objective="latency"}`.
func Labeled2(name, l1, v1, l2, v2 string) string {
	return name + "{" + l1 + `="` + labelEscaper.Replace(v1) + `",` + l2 + `="` + labelEscaper.Replace(v2) + `"}`
}

// labelEscaper writes a label value as Prometheus text format defines it:
// backslash, double quote and line feed are escaped, every other byte is
// written as it is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// LabelValue reads one label's value back from a series name rendered by
// Labeled or Labeled2, e.g. LabelValue(`udao_solve_seconds{workload="q1"}`,
// "workload") = "q1", true. A value reads back byte for byte as it was
// written, whatever it holds. Go's other escapes are read too, so a label
// block formatted with %q reads back as well.
func LabelValue(series, label string) (string, bool) {
	i := strings.IndexByte(series, '{')
	if i < 0 {
		return "", false
	}
	rest := series[i+1:]
	for {
		name, quoted, ok := strings.Cut(rest, "=")
		if !ok {
			return "", false
		}
		v, tail, ok := unquoteLabel(quoted)
		if !ok {
			return "", false
		}
		if name == label {
			return v, true
		}
		if rest, ok = strings.CutPrefix(tail, ","); !ok {
			return "", false
		}
	}
}

// unquoteLabel reads the quoted label value at the start of s and returns it
// with the rest of s after its closing quote. Bytes outside escapes are
// taken as they are.
func unquoteLabel(s string) (string, string, bool) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", false
	}
	var b []byte
	for s = s[1:]; s != ""; {
		switch s[0] {
		case '"':
			return string(b), s[1:], true
		case '\\':
			r, multibyte, tail, err := strconv.UnquoteChar(s, '"')
			if err != nil {
				return "", "", false
			}
			if multibyte {
				b = utf8.AppendRune(b, r)
			} else {
				b = append(b, byte(r))
			}
			s = tail
		default:
			b = append(b, s[0])
			s = s[1:]
		}
	}
	return "", "", false
}

// NextRunID returns a fresh process-unique run identifier with the given
// prefix (e.g. "opt-17"). Run IDs tie together every trace event of one
// logical operation — all events of one /optimize call carry the same ID, so
// /debug/trace?run=<id> replays it end to end.
func (t *Telemetry) NextRunID(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, t.runSeq.Add(1))
}
