// Package service wires the model server and the optimizer into the HTTP
// deployment shape of Fig. 1(a): user or provider requests arrive with a
// workload, a set of objectives and optional preference weights, and the
// service answers with a recommended configuration within seconds, computing
// (and caching, via the model server) whatever models it needs.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	udao "repro"
	"repro/internal/calib"
	"repro/internal/model"
	"repro/internal/modelserver"
	"repro/internal/runlog"
	"repro/internal/serving"
	"repro/internal/telemetry"
	"repro/internal/watch"
)

// DefaultSLO is the solve-latency objective the per-workload SLO counters
// are judged against when Service.SLO is unset — the paper's "recommend a
// configuration within a few seconds" requirement (§I).
const DefaultSLO = 3 * time.Second

// Service is the HTTP front end. Exact registers objectives that are known
// functions of the knobs (e.g. cost in #cores) and need no learned model.
// Telemetry, when non-nil, threads the shared registry and tracer through
// every optimizer the service builds, adds the telemetry block to /optimize
// responses, and extends the handler with /metrics and /debug/trace; Logger
// receives the structured access log. Runs, when non-nil, is the durable run
// registry: every successful /optimize is recorded (quality metrics
// computed inline, the disk write buffered off the hot path) and served
// back over GET /runs, GET /runs/{id} and GET /workloads/{name}/quality;
// /readyz gates on its writability. SLO bounds the per-workload
// solve-latency SLO counters (zero uses DefaultSLO).
type Service struct {
	Server    *modelserver.Server
	Exact     map[string]model.Model
	Seed      int64
	Telemetry *telemetry.Telemetry
	Logger    *slog.Logger
	Runs      *runlog.Registry
	SLO       time.Duration
	// Watch, when non-nil, is the SLO/drift watchdog: its alerts are served
	// over GET /alerts, its liveness appears in /healthz, and /readyz gates
	// on its alert log staying writable.
	Watch *watch.Watchdog
	// Calib, when non-nil (together with Runs), is the prediction–outcome
	// ledger behind the observe loop: POST /observe joins actual execution
	// outcomes against recorded predictions, GET /workloads/{name}/calibration
	// serves the rolling calibration stats, and /readyz gates on the ledger
	// staying writable.
	Calib *calib.Ledger

	// CacheEntries, CacheTTL, MaxInflight, ShedWait and CoalesceWait tune
	// the serving cache (capacity in optimizers, entry time-to-live, the
	// admission semaphore, the shed deadline, and how long a coalesced
	// request waits on another request's in-flight solve — see package
	// serving for semantics and defaults). They must be set before the
	// first Optimize call; zero values use the serving defaults.
	CacheEntries int
	CacheTTL     time.Duration
	MaxInflight  int
	ShedWait     time.Duration
	CoalesceWait time.Duration

	servingOnce sync.Once
	cache       *serving.Cache
}

// New builds a service over a model server.
func New(server *modelserver.Server) *Service {
	return &Service{Server: server, Exact: map[string]model.Model{}}
}

// serving lazily builds the bounded optimizer cache from the service's
// tuning fields — lazily so callers can assign Telemetry and the Cache*
// knobs after New.
func (s *Service) serving() *serving.Cache {
	s.servingOnce.Do(func() {
		s.cache = serving.NewCache(serving.Config{
			Entries:     s.CacheEntries,
			TTL:         s.CacheTTL,
			MaxInflight: s.MaxInflight,
			ShedWait:    s.ShedWait,
			CoalesceMax: s.CoalesceWait,
			Telemetry:   s.Telemetry,
		})
	})
	return s.cache
}

// OptimizeRequest is the /optimize request body. A flat request names one
// workload; a pipeline request additionally lists Stages — the workloads of
// the pipeline's stages in order — and optionally SharedKnobs, and is solved
// over the stage-wise composite space (shared knobs tied across stages, every
// other knob free per stage).
type OptimizeRequest struct {
	Workload string `json:"workload"`
	// Objectives to optimize; default ["latency", "cores"]. Prefix an
	// objective with "-" to maximize it (e.g. "-throughput"). For pipeline
	// requests, each learned objective is the sum of the per-stage models;
	// exact objectives (functions of the knobs) contribute once.
	Objectives []string  `json:"objectives"`
	Weights    []float64 `json:"weights"`
	Probes     int       `json:"probes"`
	// Stages, when non-empty, turns the request into a pipeline: one stage
	// per listed workload, in order. Workload then labels the pipeline as a
	// whole (SLO counters, run registry).
	Stages []string `json:"stages,omitempty"`
	// SharedKnobs names the cluster knobs tied to a single value across all
	// stages; every other knob is tuned independently per stage. Empty means
	// all knobs are shared (stages differ only in their models).
	SharedKnobs []string `json:"shared_knobs,omitempty"`
}

// OptimizeResponse is the /optimize response body. ModelEvals and MemoHits
// expose the cached optimizer's evaluation seam: repeated /optimize calls for
// the same workload+objectives reuse one evaluator, so ModelEvals does not
// grow when an answer comes entirely from cached work.
type OptimizeResponse struct {
	Config     map[string]float64 `json:"config"`
	Objectives map[string]float64 `json:"objectives"`
	// StageConfigs is the per-stage view of Config for pipeline requests:
	// StageConfigs[stage][knob], shared knobs repeated in every stage. Nil
	// for flat requests.
	StageConfigs   map[string]map[string]float64 `json:"stage_configs,omitempty"`
	FrontierPoints int                           `json:"frontier_points"`
	UncertainSpace float64                       `json:"uncertain_space"`
	ModelEvals     uint64                        `json:"model_evals"`
	MemoHits       uint64                        `json:"memo_hits"`
	// Served says how the serving layer satisfied the request: "hit" (cached
	// frontier), "solve" (built and solved here), "expand" (cached run
	// resumed for more probes), or "coalesced" (shared another request's
	// in-flight solve).
	Served string `json:"served,omitempty"`
	// PredictedStd is the predictive standard deviation of each objective's
	// model at the recommended configuration (absent for exact objectives and
	// for models without uncertainty) — the interval the calibration ledger
	// judges coverage against when the outcome is observed via POST /observe.
	PredictedStd map[string]float64 `json:"predicted_std,omitempty"`
	// RunRecord is the run-registry record ID of this call (retrievable via
	// GET /runs/{id}); present when the service runs with a registry.
	RunRecord string `json:"run_record,omitempty"`
	// Telemetry is present when the service runs with telemetry enabled.
	Telemetry *RunTelemetry `json:"telemetry,omitempty"`
}

// RunTelemetry summarizes the observability of one /optimize answer: the
// trace run ID (replayable via /debug/trace?run=<id>) and the optimizer's
// evaluation-seam counters.
type RunTelemetry struct {
	RunID       string `json:"run_id"`
	ModelEvals  uint64 `json:"model_evals"`
	MemoHits    uint64 `json:"memo_hits"`
	MemoMisses  uint64 `json:"memo_misses"`
	TraceEvents int    `json:"trace_events"`
}

// resolveFor builds the objective list, pulling learned models from the
// model server and exact models from the registry.
func (s *Service) resolveFor(workload string, names []string) ([]udao.Objective, error) {
	if len(names) == 0 {
		names = []string{"latency", "cores"}
	}
	objs := make([]udao.Objective, 0, len(names))
	for _, n := range names {
		maximize := false
		if len(n) > 0 && n[0] == '-' {
			maximize = true
			n = n[1:]
		}
		if m, ok := s.Exact[n]; ok {
			objs = append(objs, udao.Objective{Name: n, Model: m, Maximize: maximize})
			continue
		}
		m, err := s.Server.Model(workload, n)
		if err != nil {
			return nil, err
		}
		objs = append(objs, udao.Objective{Name: n, Model: m, Maximize: maximize})
	}
	return objs, nil
}

// pipelineOptimizer builds the stage-wise optimizer of a pipeline request:
// one stage per listed workload over the full server knob space (so the
// server's models fit the stage sub-spaces unchanged), shared knobs tied,
// learned objectives summed across stages, exact objectives contributed once.
func (s *Service) pipelineOptimizer(req OptimizeRequest, probes int, runID string, root telemetry.Span) (*udao.Optimizer, error) {
	spc := s.Server.Space()
	var shared []udao.Var
	if len(req.SharedKnobs) == 0 {
		shared = append(shared, spc.Vars...)
	} else {
		want := make(map[string]bool, len(req.SharedKnobs))
		for _, n := range req.SharedKnobs {
			if spc.Lookup(n) < 0 {
				return nil, fmt.Errorf("service: unknown shared knob %q", n)
			}
			want[n] = true
		}
		// Server-space order keeps the flat layout deterministic regardless of
		// how the request orders the names.
		for _, v := range spc.Vars {
			if want[v.Name] {
				shared = append(shared, v)
			}
		}
	}
	stages := make([]udao.Stage, len(req.Stages))
	seen := make(map[string]int, len(req.Stages))
	for i, w := range req.Stages {
		if w == "" {
			return nil, fmt.Errorf("service: empty stage workload")
		}
		name := w
		seen[w]++
		if seen[w] > 1 {
			name = fmt.Sprintf("%s#%d", w, seen[w])
		}
		stages[i] = udao.Stage{Name: name, Vars: spc.Vars}
	}
	objNames := req.Objectives
	if len(objNames) == 0 {
		objNames = []string{"latency", "cores"}
	}
	objs := make([]udao.PipelineObjective, 0, len(objNames))
	for _, n := range objNames {
		maximize := false
		if len(n) > 0 && n[0] == '-' {
			maximize = true
			n = n[1:]
		}
		ms := make([]udao.Model, len(stages))
		if m, ok := s.Exact[n]; ok {
			// A known function of the knobs has one value for the pipeline;
			// charge it once through the first stage rather than per stage.
			ms[0] = m
		} else {
			for i := range stages {
				// Per-stage span around the model fetch: lazy training is the
				// dominant cost of a cold pipeline request, and breaking it out
				// per stage shows which stage's model the request paid for.
				var sp telemetry.Span
				if s.Telemetry != nil {
					sp = s.Telemetry.Trace.StartSpan(telemetry.LevelRun, runID, root.ID(), "stage", stages[i].Name)
					s.Server.SetTraceContext(runID, sp.ID())
				}
				m, err := s.Server.Model(req.Stages[i], n)
				if s.Telemetry != nil {
					sp.End(n, nil)
					s.Server.SetTraceContext(runID, root.ID())
				}
				if err != nil {
					return nil, err
				}
				ms[i] = m
			}
		}
		objs = append(objs, udao.PipelineObjective{Name: n, StageModels: ms, Maximize: maximize})
	}
	c, err := udao.NewCompositeSpace(shared, stages)
	if err != nil {
		return nil, err
	}
	// The composite search space grows with the stage count; scale MOGD's
	// multi-start budget with it so frontier diversity doesn't collapse on
	// the concatenated encoding.
	return udao.NewPipelineOptimizer(c, objs, udao.Options{Probes: probes, Starts: 8 * len(stages), Seed: s.Seed, Telemetry: s.Telemetry, RunID: runID, Workload: req.Workload})
}

// requestKey is the serving-cache key: everything that determines WHICH
// optimizer answers a request (workload, objectives, stage list, shared
// knobs). Weights and probes are deliberately absent — different weights
// answer from one frontier (§II-B), and different probe budgets share one
// incrementally-expanded run (§IV-A). The objective list is normalized to
// its default before hashing, so an omitted list and an explicit
// ["latency","cores"] share one entry — and so a record's defaulted
// objective list reproduces the live key at warm-up.
func requestKey(req OptimizeRequest) string {
	key := req.Workload
	names := req.Objectives
	if len(names) == 0 {
		names = []string{"latency", "cores"}
	}
	for _, n := range names {
		key += "|" + n
	}
	for _, w := range req.Stages {
		key += "|stage:" + w
	}
	for _, n := range req.SharedKnobs {
		key += "|shared:" + n
	}
	return key
}

// Optimize computes a frontier (cached per workload+objectives+stages, so
// repeated requests with different weights answer from the cached frontier,
// §II-B) and recommends with WUN. The serving cache coalesces concurrent
// identical requests onto one solve, resumes the cached run when a request
// asks for more probes than it has invested, and sheds with *serving.ShedError
// when admission control refuses the solve. No service lock is held across a
// solve: requests for different keys build and solve fully in parallel. With
// a run registry attached, every successful call is recorded end to end; the
// record ID is returned in the response.
func (s *Service) Optimize(req OptimizeRequest) (*OptimizeResponse, error) {
	start := time.Now()
	if req.Workload == "" {
		return nil, fmt.Errorf("service: workload required")
	}
	probes := req.Probes
	if probes == 0 {
		probes = 30
	}
	// Root span of this request: everything the solve path does — model
	// (re)training, PF expands, MOGD solves — nests under it, which is what
	// the per-phase breakdown and udao-traceview's timeline are computed
	// from. Cached optimizers keep their run ID across requests; the root
	// span ID isolates this request's subtree. Opened lazily because the run
	// ID is the optimizer's — a fresh one for a build, the cached one for a
	// hit — and which of those happens is the serving cache's call.
	var root telemetry.Span
	runID := ""
	openRoot := func(id string) {
		if s.Telemetry == nil || runID != "" {
			return
		}
		runID = id
		root = s.Telemetry.Trace.StartSpan(telemetry.LevelRun, runID, 0, "service", "optimize")
		s.Server.SetTraceContext(runID, root.ID())
	}
	build := func() (*udao.Optimizer, error) {
		if s.Telemetry != nil {
			openRoot(s.Telemetry.NextRunID("opt"))
		}
		if len(req.Stages) > 0 {
			return s.pipelineOptimizer(req, probes, runID, root)
		}
		objs, err := s.resolveFor(req.Workload, req.Objectives)
		if err != nil {
			return nil, err
		}
		return udao.NewOptimizer(s.Server.Space(), objs,
			udao.Options{Probes: probes, Seed: s.Seed, Telemetry: s.Telemetry, RunID: runID, Workload: req.Workload})
	}
	solve := func(opt *udao.Optimizer, delta int) error {
		openRoot(opt.RunID())
		opt.SetParentSpan(root.ID())
		_, err := opt.Expand(delta)
		return err
	}
	lease, served, err := s.serving().Acquire(requestKey(req), probes, build, solve)
	if err != nil {
		root.End("error", nil)
		if runID != "" {
			s.Server.SetTraceContext("", 0)
		}
		return nil, err
	}
	defer lease.Release()
	opt := lease.Optimizer()
	openRoot(opt.RunID())
	if runID != "" {
		defer s.Server.SetTraceContext("", 0)
	}
	fail := func(err error) (*OptimizeResponse, error) {
		root.End("error", nil)
		return nil, err
	}
	opt.SetParentSpan(root.ID())
	front, err := opt.ParetoFrontier()
	if err != nil {
		return fail(err)
	}
	plan, err := opt.Recommend(udao.WUN, req.Weights)
	if err != nil {
		return fail(err)
	}
	uncertain, _ := opt.UncertainSpace()
	spc := opt.Space()
	conf := make(map[string]float64, spc.NumVars())
	for i, v := range spc.Vars {
		conf[v.Name] = float64(plan.Config[i])
	}
	hits, misses := opt.MemoStats()
	resp := &OptimizeResponse{
		Config:         conf,
		Objectives:     plan.Objectives,
		FrontierPoints: len(front),
		UncertainSpace: uncertain,
		ModelEvals:     opt.Evals(),
		MemoHits:       hits,
		PredictedStd:   opt.PredictedStd(plan.X),
		Served:         served.String(),
	}
	if comp := opt.CompositeSpace(); comp != nil && plan.Stages != nil {
		resp.StageConfigs = make(map[string]map[string]float64, len(plan.Stages))
		for si := range comp.Stages {
			name := comp.Stages[si].Name
			sv, ok := plan.Stages[name]
			if !ok {
				continue
			}
			ss := comp.StageSpace(si)
			m := make(map[string]float64, len(ss.Vars))
			for j, v := range ss.Vars {
				m[v.Name] = float64(sv[j])
			}
			resp.StageConfigs[name] = m
		}
	}
	if s.Telemetry != nil {
		resp.Telemetry = &RunTelemetry{
			RunID:       opt.RunID(),
			ModelEvals:  opt.Evals(),
			MemoHits:    hits,
			MemoMisses:  misses,
			TraceEvents: len(s.Telemetry.Trace.Events(opt.RunID())),
		}
	}
	root.End("", nil)
	solveDur := time.Since(start)
	s.observeSolve(req.Workload, solveDur)
	phases := s.phaseBreakdown(runID, root.ID())
	if s.Runs != nil {
		resp.RunRecord = s.record(req, opt, resp, uncertain, misses, solveDur, root.ID(), phases)
	}
	return resp, nil
}

// phaseBreakdown computes this request's per-phase self times from its span
// subtree, feeds the per-phase histograms, and returns the seconds map the
// run record persists (nil when tracing is off).
func (s *Service) phaseBreakdown(runID string, rootSpan uint64) map[string]float64 {
	if s.Telemetry == nil || rootSpan == 0 {
		return nil
	}
	rows, _ := telemetry.PhaseBreakdown(s.Telemetry.Trace.Events(runID), rootSpan)
	if len(rows) == 0 {
		return nil
	}
	out := make(map[string]float64, len(rows))
	m := s.Telemetry.Metrics
	for _, r := range rows {
		sec := r.Self.Seconds()
		out[r.Phase] = sec
		m.Histogram(telemetry.Labeled(telemetry.MetricPhaseSeconds, "phase", r.Phase), "", nil).Observe(sec)
	}
	return out
}

// slo returns the configured solve-latency objective.
func (s *Service) slo() time.Duration {
	if s.SLO > 0 {
		return s.SLO
	}
	return DefaultSLO
}

// observeSolve feeds the per-workload solve-latency histogram and SLO
// counters.
func (s *Service) observeSolve(workload string, d time.Duration) {
	if s.Telemetry == nil {
		return
	}
	m := s.Telemetry.Metrics
	sec := d.Seconds()
	m.Histogram(telemetry.MetricSolveLatency, "", nil).Observe(sec)
	m.Histogram(fmt.Sprintf("%s{workload=%q}", telemetry.MetricSolveLatency, workload), "", nil).Observe(sec)
	name := telemetry.MetricSolveSLOOk
	if d > s.slo() {
		name = telemetry.MetricSolveSLOBreach
	}
	m.Counter(name).Inc()
	m.Counter(fmt.Sprintf("%s{workload=%q}", name, workload)).Inc()
}

// record appends one run to the registry (quality metrics computed inline,
// the disk write buffered off the hot path by the registry) and exports the
// frontier-quality gauges. It returns the assigned record ID ("" when the
// append failed — recording never fails a served answer).
func (s *Service) record(req OptimizeRequest, opt *udao.Optimizer, resp *OptimizeResponse, uncertain float64, misses uint64, solveDur time.Duration, rootSpan uint64, phases map[string]float64) string {
	spc := opt.Space()
	vars := make([]string, len(spc.Vars))
	for i, v := range spc.Vars {
		vars[i] = v.Name
	}
	objectives := req.Objectives
	if len(objectives) == 0 {
		objectives = []string{"latency", "cores"}
	}
	pts := opt.FrontierPoints()
	front := make([]runlog.FrontierPoint, len(pts))
	for i, f := range pts {
		front[i] = runlog.FrontierPoint{F: f}
	}
	var expands []runlog.ExpandStep
	for _, st := range opt.ExpandHistory() {
		expands = append(expands, runlog.ExpandStep{
			Probes:        st.Probes,
			TotalProbes:   st.TotalProbes,
			Frontier:      st.Frontier,
			Hypervolume:   st.Hypervolume,
			UncertainFrac: st.UncertainFrac,
			ElapsedSec:    st.Elapsed.Seconds(),
		})
	}
	rec := runlog.Record{
		Workload:       req.Workload,
		Objectives:     objectives,
		Weights:        req.Weights,
		Probes:         req.Probes,
		Space:          runlog.SpaceInfo{Vars: vars, Dim: spc.Dim()},
		Frontier:       front,
		Recommended:    resp.Config,
		Objective:      resp.Objectives,
		PredictedStd:   resp.PredictedStd,
		Served:         resp.Served,
		Quality:        runlog.Quality{UncertainFrac: uncertain},
		Evals:          resp.ModelEvals,
		MemoHits:       resp.MemoHits,
		MemoMisses:     misses,
		SolveSec:       solveDur.Seconds(),
		Expands:        expands,
		TraceRunID:     opt.RunID(),
		RootSpan:       rootSpan,
		PhaseBreakdown: phases,
	}
	if comp := opt.CompositeSpace(); comp != nil {
		rec.Stages = make([]runlog.StageInfo, comp.NumStages())
		for si := range comp.Stages {
			ss := comp.StageSpace(si)
			svars := make([]string, len(ss.Vars))
			for j, v := range ss.Vars {
				svars[j] = v.Name
			}
			w := ""
			if si < len(req.Stages) {
				w = req.Stages[si]
			}
			rec.Stages[si] = runlog.StageInfo{Name: comp.Stages[si].Name, Workload: w, Vars: svars, Dim: ss.Dim()}
		}
		rec.SharedKnobs = req.SharedKnobs
		rec.StageRecommended = resp.StageConfigs
	}
	stored, err := s.Runs.Append(rec)
	if err != nil {
		if s.Telemetry != nil {
			s.Telemetry.Metrics.Counter(telemetry.MetricRunRecordErrors).Inc()
		}
		if s.Logger != nil {
			s.Logger.Error("run registry append failed", "workload", req.Workload, "err", err)
		}
		return ""
	}
	s.exportQuality(req.Workload, stored.Quality)
	return stored.ID
}

// exportQuality publishes the frontier-quality gauges, globally and broken
// out per workload.
func (s *Service) exportQuality(workload string, q runlog.Quality) {
	if s.Telemetry == nil {
		return
	}
	m := s.Telemetry.Metrics
	set := func(name string, v float64) {
		m.Gauge(name).Set(v)
		m.Gauge(fmt.Sprintf("%s{workload=%q}", name, workload)).Set(v)
	}
	set(telemetry.MetricFrontierHypervolume, q.Hypervolume)
	set(telemetry.MetricFrontierCoverage, float64(q.Coverage))
	set(telemetry.MetricRunQualityDelta, q.HypervolumeDelta)
	m.Counter(telemetry.MetricRunRecords).Inc()
}

// Handler returns the HTTP mux: /predict and /workloads from the model
// server, plus /optimize, /healthz, /readyz and the run-registry endpoints
// (GET /runs, GET /runs/{id}, GET /workloads/{name}/quality — 503 when no
// registry is attached). With Telemetry set it also serves GET /metrics
// (Prometheus text exposition) and GET /debug/trace?run=<id> (the buffered
// trace events of one run, JSON), and wraps everything in the request-ID /
// latency / access-log middleware.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	msHandler := s.Server.Handler()
	mux.Handle("/predict", msHandler)
	mux.Handle("/workloads", msHandler)
	s.registerObservability(mux)
	s.registerCalibration(mux)
	mux.HandleFunc("/optimize", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var req OptimizeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := s.Optimize(req)
		if err != nil {
			var shed *serving.ShedError
			if errors.As(err, &shed) {
				// Backpressure, not failure: tell the client when capacity is
				// plausibly back (whole seconds per RFC 9110, at least 1).
				sec := int(shed.RetryAfter.Seconds() + 0.999)
				if sec < 1 {
					sec = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(sec))
				http.Error(w, err.Error(), http.StatusTooManyRequests)
				return
			}
			code := http.StatusBadRequest
			if errors.Is(err, modelserver.ErrNotFound) {
				code = http.StatusNotFound
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if s.Telemetry == nil {
		return mux
	}
	mux.Handle("/metrics", s.Telemetry.Metrics.Handler())
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		run := r.URL.Query().Get("run")
		w.Header().Set("Content-Type", "application/json")
		if run == "" {
			// No run selected: list the runs still in the ring.
			_ = json.NewEncoder(w).Encode(map[string]any{"runs": s.Telemetry.Trace.Runs()})
			return
		}
		events := s.Telemetry.Trace.Events(run)
		if len(events) == 0 {
			http.Error(w, fmt.Sprintf("no trace events for run %q", run), http.StatusNotFound)
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"run": run, "events": events})
	})
	return telemetry.Middleware(mux, s.Telemetry, s.Logger)
}
