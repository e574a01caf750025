package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	udao "repro"
	"repro/internal/bench/tpcxbb"
	"repro/internal/calib"
	"repro/internal/model"
	"repro/internal/modelserver"
	"repro/internal/runlog"
	"repro/internal/service"
	"repro/internal/serving"
	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/watch"
)

// The traced run hosts the service in this process, with udao-server's
// shipped defaults, and composes the request path the way
// service.Optimize, (*udao.Optimizer).Expand and service.Observe do: the
// same exported calls in the same order, behind telemetry.Middleware, so
// the trace ring sees the same events. Where those functions rely on
// unexported glue (the request key, the pipeline optimizer, the run
// record), it is restated here. Each call into a layer is timed.

// udao-server defaults the traced host reproduces.
const (
	defaultSamples   = 60
	defaultSeed      = 1
	defaultWorkloads = "1,9"
)

var procStart = time.Now()

// sample is the layer timing of one request, joined to the client's
// outcome by run-record ID.
type sample struct {
	optimize  time.Duration // inside the composed Optimize
	acquire   time.Duration // (*serving.Cache).Acquire
	build     time.Duration // udao.NewOptimizer / NewCompositeSpace + NewPipelineOptimizer
	train     time.Duration // modelserver Model calls that trained
	fetch     time.Duration // modelserver Model calls that did not train
	trainings int
	expand    time.Duration // (*udao.Optimizer).Expand
	expandLo  time.Time
	expandHi  time.Time
	frontier  time.Duration // (*udao.Optimizer).ParetoFrontier
	wun       time.Duration // (*udao.Optimizer).Recommend(udao.WUN, w)
	uncertain time.Duration // (*udao.Optimizer).UncertainSpace
	std       time.Duration // (*udao.Optimizer).PredictedStd
	events    time.Duration // both (*telemetry.Tracer).Events scans
	copied    int
	phases    time.Duration // telemetry.PhaseBreakdown
	appendT   time.Duration // (*runlog.Registry).Append
	evs       []telemetry.Event
	counts    map[string]uint64 // registry counter deltas over a solve
	evals     uint64
	memoHits  uint64
	memoMiss  uint64
}

// counterNames are the registry counters read around every build+solve.
var counterNames = []string{
	telemetry.MetricModelTrainings,
	telemetry.MetricMOGDIterations,
	telemetry.MetricMOGDSolves,
	telemetry.MetricMOGDCacheHit,
	telemetry.MetricMOGDCacheMiss,
	telemetry.MetricMOGDCacheNear,
	telemetry.MetricEvalBatchPts,
	telemetry.MetricEvalBatches,
	telemetry.MetricPFProbes,
}

type tracedHost struct {
	tel     *telemetry.Telemetry
	svc     *service.Service
	cache   *serving.Cache
	wd      *watch.Watchdog
	srv     *http.Server
	url     string
	dir     string
	start   time.Time
	collect time.Duration
	logFile *os.File
	served  chan struct{}
	kind    modelserver.Kind

	mu       sync.Mutex
	samples  map[string]*sample
	observes []time.Duration // (*service.Service).Observe, in arrival order

	// Go runtime and run-registry state at the measured phase's bounds.
	mem0, mem1   runtime.MemStats
	t0, t1       time.Time
	recs0, recs1 int
	// retainedKB is the live-heap growth per record of measureRetention.
	retainedKB float64
}

// TracedResult is the traced run's outcomes plus its layer samples. Hosts
// are in start order, as Outcome.Server counts them; Samples[i] holds host
// i's samples by run-record ID.
type TracedResult struct {
	Run      *RunResult
	Samples  []map[string]*sample
	Observes []time.Duration
	Hosts    []*tracedHost
}

func (h *tracedHost) base() string         { return h.url }
func (h *tracedHost) serverPID() int       { return 0 }
func (h *tracedHost) startTime() time.Time { return h.start }

func (h *tracedHost) beforeMeasure() {
	runtime.GC()
	runtime.ReadMemStats(&h.mem0)
	h.recs0 = h.svc.Runs.Len()
	h.t0 = time.Now()
}

func (h *tracedHost) afterMeasure() {
	h.t1 = time.Now()
	runtime.GC()
	runtime.ReadMemStats(&h.mem1)
	h.recs1 = h.svc.Runs.Len()
}

func (h *tracedHost) afterProbes() error {
	var err error
	h.retainedKB, err = h.measureRetention()
	return err
}

// retentionBatch is the number of records measureRetention appends.
const retentionBatch = 500

// measureRetention measures what (*runlog.Registry).Append keeps per record:
// it appends fresh copies of the records the measured phase stored, as
// requests would, between two live-heap readings taken after a forced GC.
// Each copy is decoded inside the window and dropped after Append, so only
// the registry's own retention is live at the second reading; the client's
// outcomes and the traced samples are not. The copies repeat their
// originals' frontiers, so their hypervolume deltas are 0 and no watchdog
// rule sees them.
func (h *tracedHost) measureRetention() (float64, error) {
	recs := h.svc.Runs.List("", time.Time{}, 0)
	if h.recs1 > len(recs) || h.recs1 <= h.recs0 {
		return 0, errors.New("retention: the measured phase stored no records")
	}
	lo := h.recs0
	if h.recs1-lo > retentionBatch {
		lo = h.recs1 - retentionBatch
	}
	lines := make([][]byte, 0, h.recs1-lo)
	for _, rec := range recs[lo:h.recs1] {
		rec.ID = ""
		b, err := json.Marshal(rec)
		if err != nil {
			return 0, err
		}
		lines = append(lines, b)
	}
	recs = nil
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < retentionBatch; i++ {
		var rec runlog.Record
		if err := json.Unmarshal(lines[i%len(lines)], &rec); err != nil {
			return 0, err
		}
		if _, err := h.svc.Runs.Append(rec); err != nil {
			return 0, err
		}
	}
	// Queued file writes hold their encoded lines until written.
	if err := h.svc.Runs.Sync(); err != nil {
		return 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	// The templates were live at the first reading; keep them so at the
	// second.
	runtime.KeepAlive(lines)
	return float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / 1024 / retentionBatch, nil
}

// stop shuts down whatever startTraced got running, waits for the HTTP
// server and the watchdog to exit, and removes the state directory.
func (h *tracedHost) stop() {
	if h.srv != nil {
		_ = h.srv.Close()
		<-h.served
	}
	if h.wd != nil {
		h.wd.Stop()
	}
	if h.svc != nil && h.svc.Calib != nil {
		_ = h.svc.Calib.Close()
	}
	if h.svc != nil && h.svc.Runs != nil {
		_ = h.svc.Runs.Close()
	}
	if h.logFile != nil {
		h.logFile.Close()
	}
	os.RemoveAll(h.dir)
}

// serverFlags parses the udao-server flags a deck passes.
func serverFlags(args []string) (workloads string, kind modelserver.Kind, err error) {
	workloads, kind = defaultWorkloads, modelserver.GP
	for _, a := range args {
		switch {
		case a == "-model=dnn":
			kind = modelserver.DNN
		case strings.HasPrefix(a, "-workloads="):
			workloads = strings.TrimPrefix(a, "-workloads=")
		default:
			return "", 0, fmt.Errorf("traced host: unsupported server flag %q", a)
		}
	}
	return workloads, kind, nil
}

// startTraced boots the service in this process the way cmd/udao-server's
// main does with its default flags, and serves it on a loopback port.
func startTraced(d *Deck, root string) (_ *tracedHost, err error) {
	wls, kind, err := serverFlags(d.ServerArgs)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "traced-")
	if err != nil {
		return nil, err
	}
	h := &tracedHost{dir: dir, samples: map[string]*sample{}, served: make(chan struct{}), kind: kind}
	defer func() {
		if err != nil {
			h.stop()
		}
	}()
	h.start = time.Now()
	if h.logFile, err = os.Create(filepath.Join(dir, "server.log")); err != nil {
		return nil, err
	}
	logger := slog.New(slog.NewTextHandler(h.logFile, nil))
	tel := telemetry.New()
	tel.Trace.SetLevel(telemetry.LevelRun)
	h.tel = tel

	spc := spark.BatchSpace()
	cluster := spark.DefaultCluster()
	store := trace.NewStore()
	c0 := time.Now()
	for _, part := range strings.Split(wls, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || id < 0 || id >= tpcxbb.NumWorkloads {
			return nil, fmt.Errorf("traced host: bad workload id %q", part)
		}
		w := tpcxbb.ByID(id)
		runner := func(conf space.Values, s int64) (map[string]float64, []float64, error) {
			m, err := spark.Run(w.Flow, spc, conf, cluster, s)
			if err != nil {
				return nil, nil, err
			}
			return map[string]float64{"latency": m.LatencySec, "cores": m.Cores, "cost2": m.Cost2()}, m.TraceVector(), nil
		}
		confs, err := trace.HeuristicSample(spc, spark.DefaultBatchConf(spc), defaultSamples, rand.New(rand.NewSource(defaultSeed+int64(id))))
		if err != nil {
			return nil, err
		}
		if err := trace.Collect(store, spc, w.Flow.Name, confs, runner, defaultSeed); err != nil {
			return nil, err
		}
	}
	h.collect = time.Since(c0)

	svc := service.New(modelserver.New(spc, store, modelserver.Config{Kind: kind, Telemetry: tel}))
	h.svc = svc
	svc.Seed = defaultSeed
	svc.Telemetry = tel
	svc.Logger = logger
	if svc.Runs, err = runlog.Open(filepath.Join(dir, "runs.jsonl"), runlog.Options{}); err != nil {
		return nil, err
	}
	if svc.Calib, err = calib.Open(filepath.Join(dir, "calib.jsonl"), calib.Options{Telemetry: tel}); err != nil {
		return nil, err
	}
	h.wd, err = watch.New(watch.Config{
		Telemetry: tel,
		Runs:      svc.Runs,
		Calib:     svc.Calib,
		AlertPath: filepath.Join(dir, "alerts.jsonl"),
		Interval:  15 * time.Second,
		Flight:    watch.FlightConfig{Dir: filepath.Join(dir, "flight")},
		Logger:    logger,
	})
	if err != nil {
		return nil, err
	}
	h.wd.Start()
	svc.Watch = h.wd
	svc.Exact["cores"] = model.Func{D: spc.Dim(), F: func(x []float64) float64 {
		vals, err := spc.Decode(x)
		if err != nil {
			return 0
		}
		inst, _ := spc.Get(vals, spark.KnobInstances)
		cores, _ := spc.Get(vals, spark.KnobCores)
		return inst * cores
	}}
	h.cache = serving.NewCache(serving.Config{Telemetry: tel})

	// The service's own handler serves every other route; /optimize and
	// /observe go through the composed, timed path behind the same
	// middleware.
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.Handle("/optimize", telemetry.Middleware(http.HandlerFunc(h.handleOptimize), tel, logger))
	mux.Handle("/observe", telemetry.Middleware(http.HandlerFunc(h.handleObserve), tel, logger))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h.url = "http://" + ln.Addr().String()
	h.srv = &http.Server{Handler: mux}
	go func() {
		defer close(h.served)
		_ = h.srv.Serve(ln)
	}()
	return h, nil
}

func (h *tracedHost) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req service.OptimizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, smp, err := h.optimize(req)
	if err != nil {
		var shed *serving.ShedError
		if errors.As(err, &shed) {
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
	h.keep(resp.RunRecord, smp)
}

func (h *tracedHost) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req service.ObserveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	t := time.Now()
	resp, status, err := h.svc.Observe(req)
	d := time.Since(t)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(resp)
	h.mu.Lock()
	h.observes = append(h.observes, d)
	h.mu.Unlock()
}

func (h *tracedHost) keep(id string, s *sample) {
	if id == "" {
		return
	}
	h.mu.Lock()
	h.samples[id] = s
	h.mu.Unlock()
}

func (h *tracedHost) counters() map[string]uint64 {
	out := make(map[string]uint64, len(counterNames))
	for _, n := range counterNames {
		out[n] = h.tel.Metrics.Counter(n).Value()
	}
	return out
}

// model fetches one model, timing it as training when it trained.
func (h *tracedHost) model(smp *sample, workload, objective string) (model.Model, error) {
	trainings := h.tel.Metrics.Counter(telemetry.MetricModelTrainings)
	n0 := trainings.Value()
	t := time.Now()
	m, err := h.svc.Server.Model(workload, objective)
	d := time.Since(t)
	if n := trainings.Value() - n0; n > 0 {
		smp.train += d
		smp.trainings += int(n)
	} else {
		smp.fetch += d
	}
	return m, err
}

// requestKey restates service.requestKey.
func requestKey(req service.OptimizeRequest) string {
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

// resolveFor restates service.resolveFor.
func (h *tracedHost) resolveFor(smp *sample, workload string, names []string) ([]udao.Objective, error) {
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
		if m, ok := h.svc.Exact[n]; ok {
			objs = append(objs, udao.Objective{Name: n, Model: m, Maximize: maximize})
			continue
		}
		m, err := h.model(smp, workload, n)
		if err != nil {
			return nil, err
		}
		objs = append(objs, udao.Objective{Name: n, Model: m, Maximize: maximize})
	}
	return objs, nil
}

// pipelineOptimizer restates service.pipelineOptimizer.
func (h *tracedHost) pipelineOptimizer(smp *sample, req service.OptimizeRequest, probes int, runID string, root telemetry.Span) (*udao.Optimizer, error) {
	s := h.svc
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
			ms[0] = m
		} else {
			for i := range stages {
				sp := h.tel.Trace.StartSpan(telemetry.LevelRun, runID, root.ID(), "stage", stages[i].Name)
				s.Server.SetTraceContext(runID, sp.ID())
				m, err := h.model(smp, req.Stages[i], n)
				sp.End(n, nil)
				s.Server.SetTraceContext(runID, root.ID())
				if err != nil {
					return nil, err
				}
				ms[i] = m
			}
		}
		objs = append(objs, udao.PipelineObjective{Name: n, StageModels: ms, Maximize: maximize})
	}
	t := time.Now()
	defer func() { smp.build += time.Since(t) }()
	c, err := udao.NewCompositeSpace(shared, stages)
	if err != nil {
		return nil, err
	}
	return udao.NewPipelineOptimizer(c, objs, udao.Options{Probes: probes, Starts: 8 * len(stages), Seed: s.Seed, Telemetry: s.Telemetry, RunID: runID, Workload: req.Workload})
}

// optimize restates service.Optimize with every layer call timed.
func (h *tracedHost) optimize(req service.OptimizeRequest) (*service.OptimizeResponse, *sample, error) {
	s := h.svc
	smp := &sample{}
	start := time.Now()
	defer func() { smp.optimize = time.Since(start) }()
	if req.Workload == "" {
		return nil, smp, fmt.Errorf("service: workload required")
	}
	probes := req.Probes
	if probes == 0 {
		probes = 30
	}
	var root telemetry.Span
	runID := ""
	openRoot := func(id string) {
		if runID != "" {
			return
		}
		runID = id
		root = h.tel.Trace.StartSpan(telemetry.LevelRun, runID, 0, "service", "optimize")
		s.Server.SetTraceContext(runID, root.ID())
	}
	var before map[string]uint64
	build := func() (*udao.Optimizer, error) {
		before = h.counters()
		openRoot(h.tel.NextRunID("opt"))
		if len(req.Stages) > 0 {
			return h.pipelineOptimizer(smp, req, probes, runID, root)
		}
		objs, err := h.resolveFor(smp, req.Workload, req.Objectives)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		defer func() { smp.build += time.Since(t) }()
		return udao.NewOptimizer(s.Server.Space(), objs,
			udao.Options{Probes: probes, Seed: s.Seed, Telemetry: s.Telemetry, RunID: runID, Workload: req.Workload})
	}
	solve := func(opt *udao.Optimizer, delta int) error {
		if before == nil {
			before = h.counters()
		}
		openRoot(opt.RunID())
		opt.SetParentSpan(root.ID())
		smp.expandLo = time.Now()
		_, err := opt.Expand(delta)
		smp.expandHi = time.Now()
		smp.expand += smp.expandHi.Sub(smp.expandLo)
		return err
	}
	t := time.Now()
	lease, served, err := h.cache.Acquire(requestKey(req), probes, build, solve)
	smp.acquire = time.Since(t)
	if before != nil {
		after := h.counters()
		smp.counts = make(map[string]uint64, len(after))
		for k, v := range after {
			smp.counts[k] = v - before[k]
		}
	}
	if err != nil {
		root.End("error", nil)
		if runID != "" {
			s.Server.SetTraceContext("", 0)
		}
		return nil, smp, err
	}
	defer lease.Release()
	opt := lease.Optimizer()
	openRoot(opt.RunID())
	if runID != "" {
		defer s.Server.SetTraceContext("", 0)
	}
	fail := func(err error) (*service.OptimizeResponse, *sample, error) {
		root.End("error", nil)
		return nil, smp, err
	}
	opt.SetParentSpan(root.ID())
	t = time.Now()
	front, err := opt.ParetoFrontier()
	smp.frontier = time.Since(t)
	if err != nil {
		return fail(err)
	}
	t = time.Now()
	plan, err := opt.Recommend(udao.WUN, req.Weights)
	smp.wun = time.Since(t)
	if err != nil {
		return fail(err)
	}
	t = time.Now()
	uncertain, _ := opt.UncertainSpace()
	smp.uncertain = time.Since(t)
	spc := opt.Space()
	conf := make(map[string]float64, spc.NumVars())
	for i, v := range spc.Vars {
		conf[v.Name] = float64(plan.Config[i])
	}
	hits, misses := opt.MemoStats()
	t = time.Now()
	std := opt.PredictedStd(plan.X)
	smp.std = time.Since(t)
	resp := &service.OptimizeResponse{
		Config:         conf,
		Objectives:     plan.Objectives,
		FrontierPoints: len(front),
		UncertainSpace: uncertain,
		ModelEvals:     opt.Evals(),
		MemoHits:       hits,
		PredictedStd:   std,
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
	t = time.Now()
	evs := h.tel.Trace.Events(opt.RunID())
	smp.events += time.Since(t)
	smp.copied += len(evs)
	resp.Telemetry = &service.RunTelemetry{
		RunID:       opt.RunID(),
		ModelEvals:  opt.Evals(),
		MemoHits:    hits,
		MemoMisses:  misses,
		TraceEvents: len(evs),
	}
	if smp.expand > 0 {
		smp.evs = evs
	}
	smp.evals, smp.memoHits, smp.memoMiss = opt.Evals(), hits, misses
	root.End("", nil)
	solveDur := time.Since(start)
	h.observeSolve(req.Workload, solveDur)
	phases := h.phaseBreakdown(smp, runID, root.ID())
	resp.RunRecord = h.record(smp, req, opt, resp, uncertain, misses, solveDur, root.ID(), phases)
	return resp, smp, nil
}

// observeSolve restates service.observeSolve.
func (h *tracedHost) observeSolve(workload string, d time.Duration) {
	m := h.tel.Metrics
	sec := d.Seconds()
	m.Histogram(telemetry.MetricSolveLatency, "", nil).Observe(sec)
	m.Histogram(fmt.Sprintf("%s{workload=%q}", telemetry.MetricSolveLatency, workload), "", nil).Observe(sec)
	name := telemetry.MetricSolveSLOOk
	if d > service.DefaultSLO {
		name = telemetry.MetricSolveSLOBreach
	}
	m.Counter(name).Inc()
	m.Counter(fmt.Sprintf("%s{workload=%q}", name, workload)).Inc()
}

// phaseBreakdown restates service.phaseBreakdown.
func (h *tracedHost) phaseBreakdown(smp *sample, runID string, rootSpan uint64) map[string]float64 {
	if rootSpan == 0 {
		return nil
	}
	t := time.Now()
	evs := h.tel.Trace.Events(runID)
	smp.events += time.Since(t)
	smp.copied += len(evs)
	t = time.Now()
	rows, _ := telemetry.PhaseBreakdown(evs, rootSpan)
	smp.phases = time.Since(t)
	if len(rows) == 0 {
		return nil
	}
	out := make(map[string]float64, len(rows))
	m := h.tel.Metrics
	for _, r := range rows {
		sec := r.Self.Seconds()
		out[r.Phase] = sec
		m.Histogram(telemetry.Labeled(telemetry.MetricPhaseSeconds, "phase", r.Phase), "", nil).Observe(sec)
	}
	return out
}

// record restates service.record and exportQuality.
func (h *tracedHost) record(smp *sample, req service.OptimizeRequest, opt *udao.Optimizer, resp *service.OptimizeResponse, uncertain float64, misses uint64, solveDur time.Duration, rootSpan uint64, phases map[string]float64) string {
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
	t := time.Now()
	stored, err := h.svc.Runs.Append(rec)
	smp.appendT = time.Since(t)
	m := h.tel.Metrics
	if err != nil {
		m.Counter(telemetry.MetricRunRecordErrors).Inc()
		h.svc.Logger.Error("run registry append failed", "workload", req.Workload, "err", err)
		return ""
	}
	set := func(name string, v float64) {
		m.Gauge(name).Set(v)
		m.Gauge(fmt.Sprintf("%s{workload=%q}", name, req.Workload)).Set(v)
	}
	set(telemetry.MetricFrontierHypervolume, stored.Quality.Hypervolume)
	set(telemetry.MetricFrontierCoverage, float64(stored.Quality.Coverage))
	set(telemetry.MetricRunQualityDelta, stored.Quality.HypervolumeDelta)
	m.Counter(telemetry.MetricRunRecords).Inc()
	return stored.ID
}

// executeTraced runs the deck against in-process hosts, one per measuring
// server of the untraced run.
func executeTraced(d *Deck, state string) (*TracedResult, error) {
	var hosts []*tracedHost
	start := func() (target, error) {
		h, err := startTraced(d, state)
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
		return h, nil
	}
	r, err := execute(d, 1, start)
	if err != nil {
		return nil, err
	}
	tr := &TracedResult{Run: r, Hosts: hosts}
	for _, h := range hosts {
		h.mu.Lock()
		tr.Samples = append(tr.Samples, h.samples)
		tr.Observes = append(tr.Observes, h.observes...)
		h.mu.Unlock()
	}
	return tr, nil
}
