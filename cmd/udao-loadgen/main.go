// Command udao-loadgen drives the serving path at a configurable request
// rate and reports what the paper's Fig. 1(a) deployment shape actually
// cares about: can the optimizer answer a cloud platform's stream of
// recommendation requests within its latency budget?
//
// Two request sources:
//
//   - synthetic (default): a mixed-workload profile over the requested
//     TPCx-BB workloads — flat per-workload requests plus multi-stage
//     pipeline requests (-pipeline-frac of traffic), weights varied per
//     request so every response exercises WUN recommendation on the shared
//     frontier.
//   - replay (-runlog runs.jsonl): requests reconstructed from a run
//     registry recorded by a real server — workload, objectives, weights,
//     probes and pipeline stages are replayed verbatim (shared-knob sets
//     are not recorded and replay as the all-shared default).
//
// The target is either a running server (-url) or, when -url is empty, an
// in-process server built like udao-server (same sampling, same models, same
// serving cache) so a single command measures the full HTTP serving path
// with zero setup:
//
//	udao-loadgen -workloads 1,9,14 -qps 1000 -duration 10s
//	udao-loadgen -url http://127.0.0.1:8080 -runlog runs.jsonl -qps 200
//
// Load is open-loop: a pacer releases request tokens at -qps regardless of
// in-flight progress (token drops are reported — they mean the worker pool
// itself saturated). The report gives achieved QPS, p50/p95/p99/max latency,
// the shed (429) rate, and the serving-cache hit ratio observed from the
// responses' "served" field; -out appends the same report as one JSON line
// (schema udao-serving-bench/v1, the serving companion of BENCH_solver.json).
//
// With -observe-frac > 0 the generator also closes the observe loop: that
// fraction of OK responses is followed by a POST /observe reporting a
// simulated execution outcome, derived from the predicted objectives by
// -observe-bias and -observe-noise. Against the in-process server this spins
// up the full calibration stack (runs.jsonl, calib.jsonl, watchdog with
// alerts.jsonl and flight bundles, under -state-dir), so one command
// demonstrates drift detection end to end:
//
//	udao-loadgen -workloads 1 -qps 50 -duration 5s -observe-frac 0.5 \
//	    -observe-bias 1.5 -state-dir ./state -watch-interval 2s
//	udao-traceview calib ./state/calib.jsonl
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench/tpcxbb"
	"repro/internal/calib"
	"repro/internal/model"
	"repro/internal/modelserver"
	"repro/internal/runlog"
	"repro/internal/service"
	"repro/internal/space"
	"repro/internal/spark"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/watch"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "udao-loadgen:", err)
		os.Exit(1)
	}
}

type options struct {
	url          string
	runlogPath   string
	workloads    string
	samples      int
	modelKind    string
	seed         int64
	qps          float64
	concurrency  int
	duration     time.Duration
	pipelineFrac float64
	probes       int
	slo          time.Duration
	out          string
	label        string
	cacheEntries int
	maxInflight  int
	shedWait     time.Duration

	observeFrac   float64
	observeBias   float64
	observeNoise  float64
	stateDir      string
	watchInterval time.Duration
}

func run(args []string, out io.Writer) error {
	opt, err := parseFlags(args, out)
	if err != nil {
		return err
	}

	reqs, err := buildRequests(opt)
	if err != nil {
		return err
	}

	base := strings.TrimRight(opt.url, "/")
	if base == "" {
		srv, cleanup, err := inProcessServer(opt, out)
		if err != nil {
			return err
		}
		defer cleanup()
		defer srv.Close()
		base = srv.URL
	}

	rep, err := fire(base, reqs, opt, out)
	if err != nil {
		return err
	}
	rep.Label = opt.label
	printReport(out, rep)
	if opt.out != "" {
		if err := appendReport(opt.out, rep); err != nil {
			return err
		}
		fmt.Fprintf(out, "report appended to %s\n", opt.out)
	}
	return nil
}

func parseFlags(args []string, out io.Writer) (options, error) {
	var opt options
	fs := flag.NewFlagSet("udao-loadgen", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&opt.url, "url", "", "target server base URL (empty: run an in-process server)")
	fs.StringVar(&opt.runlogPath, "runlog", "", "replay requests from this run-registry JSONL instead of the synthetic profile")
	fs.StringVar(&opt.workloads, "workloads", "1,9,14", "comma-separated TPCx-BB workload ids for the synthetic profile / in-process server")
	fs.IntVar(&opt.samples, "samples", 40, "training samples per workload for the in-process server")
	fs.StringVar(&opt.modelKind, "model", "gp", "model family for the in-process server: gp or dnn")
	fs.Int64Var(&opt.seed, "seed", 1, "random seed (sampling, training, request mixing)")
	fs.Float64Var(&opt.qps, "qps", 1000, "target request rate")
	fs.IntVar(&opt.concurrency, "concurrency", 64, "worker goroutines issuing requests")
	fs.DurationVar(&opt.duration, "duration", 10*time.Second, "measured load duration (after warmup)")
	fs.Float64Var(&opt.pipelineFrac, "pipeline-frac", 0.25, "fraction of synthetic traffic that is pipeline requests")
	fs.IntVar(&opt.probes, "probes", 30, "probe budget per synthetic request")
	fs.DurationVar(&opt.slo, "slo", 3*time.Second, "latency SLO the report judges p99 against")
	fs.StringVar(&opt.out, "out", "", "append the JSON report (schema udao-serving-bench/v1) to this file")
	fs.StringVar(&opt.label, "label", "", "free-form label recorded in the JSON report")
	fs.IntVar(&opt.cacheEntries, "cache-entries", 0, "in-process server: serving-cache capacity (0 = default)")
	fs.IntVar(&opt.maxInflight, "max-inflight", 0, "in-process server: admission limit on concurrent solves (0 = default)")
	fs.DurationVar(&opt.shedWait, "shed-wait", 0, "in-process server: shed deadline (0 = default)")
	fs.Float64Var(&opt.observeFrac, "observe-frac", 0, "fraction of OK responses followed by a POST /observe with a simulated execution outcome (0 disables the observe loop)")
	fs.Float64Var(&opt.observeBias, "observe-bias", 0, "relative bias of simulated outcomes: actual = predicted*(1+bias) — e.g. 1.5 makes every run 2.5x its prediction, driving the calib_drift alert")
	fs.Float64Var(&opt.observeNoise, "observe-noise", 0, "multiplicative Gaussian noise of simulated outcomes: actual *= 1+noise*N(0,1)")
	fs.StringVar(&opt.stateDir, "state-dir", "", "in-process server with -observe-frac: directory for runs.jsonl, calib.jsonl, alerts.jsonl and flight bundles (empty uses a temp dir)")
	fs.DurationVar(&opt.watchInterval, "watch-interval", 2*time.Second, "in-process server with -observe-frac: watchdog sweep interval")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	if opt.qps <= 0 {
		return opt, fmt.Errorf("-qps must be positive")
	}
	if opt.observeFrac < 0 || opt.observeFrac > 1 {
		return opt, fmt.Errorf("-observe-frac must be in [0,1]")
	}
	if opt.concurrency <= 0 {
		opt.concurrency = 1
	}
	return opt, nil
}

// request is one replayable request body with its JSON pre-marshalled.
type request struct {
	body service.OptimizeRequest
	raw  []byte
}

func marshalRequests(bodies []service.OptimizeRequest) ([]request, error) {
	reqs := make([]request, len(bodies))
	for i, b := range bodies {
		raw, err := json.Marshal(b)
		if err != nil {
			return nil, err
		}
		reqs[i] = request{body: b, raw: raw}
	}
	return reqs, nil
}

// buildRequests produces the request deck: either replayed from a run
// registry or the synthetic mixed-workload profile.
func buildRequests(opt options) ([]request, error) {
	if opt.runlogPath != "" {
		bodies, err := replayRequests(opt.runlogPath)
		if err != nil {
			return nil, err
		}
		if len(bodies) == 0 {
			return nil, fmt.Errorf("%s holds no replayable runs", opt.runlogPath)
		}
		return marshalRequests(bodies)
	}
	names, err := workloadNames(opt.workloads)
	if err != nil {
		return nil, err
	}
	return marshalRequests(syntheticProfile(names, opt.pipelineFrac, opt.probes))
}

func parseWorkloads(spec string) ([]tpcxbb.Workload, error) {
	var ws []tpcxbb.Workload
	for _, part := range strings.Split(spec, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || id < 0 || id >= tpcxbb.NumWorkloads {
			return nil, fmt.Errorf("bad workload id %q", part)
		}
		ws = append(ws, tpcxbb.ByID(id))
	}
	return ws, nil
}

func workloadNames(spec string) ([]string, error) {
	ws, err := parseWorkloads(spec)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Flow.Name
	}
	return names, nil
}

// syntheticProfile is a 100-slot deck over the named workloads: flat
// requests round-robin across workloads, plus pipeline requests (consecutive
// workload pairs) filling pipelineFrac of the slots. Workers draw from the
// deck uniformly, so the traffic mix matches the slot mix.
func syntheticProfile(names []string, pipelineFrac float64, probes int) []service.OptimizeRequest {
	const slots = 100
	nPipe := int(pipelineFrac*slots + 0.5)
	if nPipe > slots {
		nPipe = slots
	}
	deck := make([]service.OptimizeRequest, 0, slots)
	for i := 0; i < slots-nPipe; i++ {
		deck = append(deck, service.OptimizeRequest{Workload: names[i%len(names)], Probes: probes})
	}
	for i := 0; i < nPipe; i++ {
		a := names[i%len(names)]
		b := names[(i+1)%len(names)]
		deck = append(deck, service.OptimizeRequest{
			Workload: fmt.Sprintf("pipe-%s-%s", a, b),
			Stages:   []string{a, b},
			Probes:   probes,
		})
	}
	return deck
}

// replayRequests reconstructs request bodies from recorded runs.
func replayRequests(path string) ([]service.OptimizeRequest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []service.OptimizeRequest
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec runlog.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("%s: bad record: %w", path, err)
		}
		req := service.OptimizeRequest{
			Workload:   rec.Workload,
			Objectives: rec.Objectives,
			Weights:    rec.Weights,
			Probes:     rec.Probes,
		}
		for _, st := range rec.Stages {
			req.Stages = append(req.Stages, st.Workload)
		}
		out = append(out, req)
	}
	return out, sc.Err()
}

// inProcessServer builds the same service udao-server runs — sampled traces,
// trained models, serving cache — behind an httptest listener. With
// -observe-frac set it additionally carries the full observe loop (run
// registry, calibration ledger, watchdog + flight recorder) under -state-dir;
// the returned cleanup runs one final watchdog sweep (so outcomes observed
// after the last periodic sweep still raise their alerts into alerts.jsonl)
// and closes the durable state.
func inProcessServer(opt options, out io.Writer) (*httptest.Server, func(), error) {
	ws, err := parseWorkloads(opt.workloads)
	if err != nil {
		return nil, nil, err
	}
	tel := telemetry.New()
	tel.Trace.SetLevel(telemetry.LevelOff) // load generation, not tracing
	spc := spark.BatchSpace()
	cluster := spark.DefaultCluster()
	store := trace.NewStore()
	for i, w := range ws {
		w := w
		runner := func(conf space.Values, s int64) (map[string]float64, []float64, error) {
			m, err := spark.Run(w.Flow, spc, conf, cluster, s)
			if err != nil {
				return nil, nil, err
			}
			return map[string]float64{
				"latency": m.LatencySec,
				"cores":   m.Cores,
				"cost2":   m.Cost2(),
			}, m.TraceVector(), nil
		}
		confs, err := trace.HeuristicSample(spc, spark.DefaultBatchConf(spc), opt.samples, rand.New(rand.NewSource(opt.seed+int64(i))))
		if err != nil {
			return nil, nil, err
		}
		if err := trace.Collect(store, spc, w.Flow.Name, confs, runner, opt.seed); err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(out, "loaded workload %s (%d traces)\n", w.Flow.Name, opt.samples)
	}
	kind := modelserver.GP
	if opt.modelKind == "dnn" {
		kind = modelserver.DNN
	}
	svc := service.New(modelserver.New(spc, store, modelserver.Config{Kind: kind, Telemetry: tel}))
	svc.Seed = opt.seed
	svc.Telemetry = tel
	svc.CacheEntries = opt.cacheEntries
	svc.MaxInflight = opt.maxInflight
	svc.ShedWait = opt.shedWait
	svc.Exact["cores"] = model.Func{D: spc.Dim(), F: func(x []float64) float64 {
		vals, err := spc.Decode(x)
		if err != nil {
			return 0
		}
		inst, _ := spc.Get(vals, spark.KnobInstances)
		cores, _ := spc.Get(vals, spark.KnobCores)
		return inst * cores
	}}
	cleanup := func() {}
	if opt.observeFrac > 0 {
		dir := opt.stateDir
		if dir == "" {
			if dir, err = os.MkdirTemp("", "udao-loadgen"); err != nil {
				return nil, nil, err
			}
			fmt.Fprintf(out, "observe loop state in %s\n", dir)
		}
		reg, err := runlog.Open(filepath.Join(dir, "runs.jsonl"), runlog.Options{})
		if err != nil {
			return nil, nil, err
		}
		led, err := calib.Open(filepath.Join(dir, "calib.jsonl"), calib.Options{Telemetry: tel})
		if err != nil {
			reg.Close()
			return nil, nil, err
		}
		wd, err := watch.New(watch.Config{
			Telemetry: tel,
			Runs:      reg,
			Calib:     led,
			AlertPath: filepath.Join(dir, "alerts.jsonl"),
			Interval:  opt.watchInterval,
			Flight:    watch.FlightConfig{Dir: filepath.Join(dir, "flight")},
		})
		if err != nil {
			led.Close()
			reg.Close()
			return nil, nil, err
		}
		wd.Start()
		svc.Runs = reg
		svc.Calib = led
		svc.Watch = wd
		cleanup = func() {
			wd.EvalOnce()
			wd.Stop()
			led.Close()
			reg.Close()
		}
	}
	return httptest.NewServer(svc.Handler()), cleanup, nil
}

// report is the JSON line appended by -out.
type report struct {
	Schema       string    `json:"schema"`
	Label        string    `json:"label,omitempty"`
	Time         time.Time `json:"time"`
	TargetQPS    float64   `json:"target_qps"`
	AchievedQPS  float64   `json:"achieved_qps"`
	DurationSec  float64   `json:"duration_sec"`
	Workers      int       `json:"workers"`
	Workloads    int       `json:"workloads"`
	PipelineFrac float64   `json:"pipeline_frac"`
	Requests     int       `json:"requests"`
	OK           int       `json:"ok"`
	Shed         int       `json:"shed"`
	Errors       int       `json:"errors"`
	DroppedTicks int       `json:"dropped_ticks"`
	ShedRate     float64   `json:"shed_rate"`
	HitRatio     float64   `json:"hit_ratio"`
	P50Ms        float64   `json:"p50_ms"`
	P95Ms        float64   `json:"p95_ms"`
	P99Ms        float64   `json:"p99_ms"`
	MaxMs        float64   `json:"max_ms"`
	SLOSec       float64   `json:"slo_sec"`
	P99UnderSLO  bool      `json:"p99_under_slo"`
	ObserveFrac  float64   `json:"observe_frac,omitempty"`
	Observed     int       `json:"observed,omitempty"`
	ObserveErrs  int       `json:"observe_errors,omitempty"`
}

// fire warms every distinct request shape once (training models and building
// frontiers outside the measurement window), then drives the open-loop load.
func fire(base string, reqs []request, opt options, out io.Writer) (report, error) {
	client := &http.Client{Timeout: 2 * opt.slo}

	warmed := map[string]bool{}
	warmStart := time.Now()
	for _, r := range reqs {
		k := string(r.raw)
		if warmed[k] {
			continue
		}
		warmed[k] = true
		rep, err := post(client, base, r.raw)
		if err != nil {
			return report{}, fmt.Errorf("warmup: %w", err)
		}
		if rep.status != http.StatusOK {
			return report{}, fmt.Errorf("warmup request %s: status %d", r.raw, rep.status)
		}
	}
	fmt.Fprintf(out, "warmed %d request shapes in %.1fs; measuring %.0f QPS for %s\n",
		len(warmed), time.Since(warmStart).Seconds(), opt.qps, opt.duration)

	tokens := make(chan struct{}, 4*opt.concurrency)
	var dropped atomic.Int64
	go pace(tokens, opt.qps, opt.duration, &dropped)

	var obs *observer
	if opt.observeFrac > 0 {
		obs = &observer{frac: opt.observeFrac, bias: opt.observeBias, noise: opt.observeNoise, client: client, base: base}
	}

	type outcome struct {
		latency time.Duration
		status  int
		served  string
		err     bool
	}
	var mu sync.Mutex
	var outcomes []outcome

	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < opt.concurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opt.seed + 7919*int64(g)))
			var local []outcome
			for range tokens {
				r := reqs[rng.Intn(len(reqs))]
				body := r.raw
				// Re-weight synthetic requests per call: recommendation runs
				// per request even when the frontier is cached.
				if len(r.body.Weights) == 0 {
					w := 0.05 + 0.9*rng.Float64()
					b := r.body
					b.Weights = []float64{w, 1 - w}
					body, _ = json.Marshal(b)
				}
				t0 := time.Now()
				rep, err := post(client, base, body)
				local = append(local, outcome{latency: time.Since(t0), status: rep.status, served: rep.served, err: err != nil})
				if err == nil && rep.status == http.StatusOK {
					// Outcome feedback rides outside the latency measurement:
					// executing the plan is the platform's cost, not the
					// optimizer's.
					obs.maybeObserve(rng, rep)
				}
			}
			mu.Lock()
			outcomes = append(outcomes, local...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := report{
		Schema:       "udao-serving-bench/v1",
		Time:         time.Now().UTC(),
		TargetQPS:    opt.qps,
		DurationSec:  elapsed.Seconds(),
		Workers:      opt.concurrency,
		PipelineFrac: opt.pipelineFrac,
		DroppedTicks: int(dropped.Load()),
		SLOSec:       opt.slo.Seconds(),
	}
	wls := map[string]bool{}
	for _, r := range reqs {
		for _, s := range r.body.Stages {
			wls[s] = true
		}
		if len(r.body.Stages) == 0 {
			wls[r.body.Workload] = true
		}
	}
	rep.Workloads = len(wls)

	var lats []float64
	hits := 0
	for _, o := range outcomes {
		rep.Requests++
		switch {
		case o.err:
			rep.Errors++
		case o.status == http.StatusTooManyRequests:
			rep.Shed++
		case o.status == http.StatusOK:
			rep.OK++
			lats = append(lats, o.latency.Seconds())
			if o.served == "hit" || o.served == "coalesced" {
				hits++
			}
		default:
			rep.Errors++
		}
	}
	if rep.Requests > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
	}
	if rep.OK > 0 {
		rep.HitRatio = float64(hits) / float64(rep.OK)
	}
	if elapsed > 0 {
		rep.AchievedQPS = float64(rep.OK+rep.Shed) / elapsed.Seconds()
	}
	sort.Float64s(lats)
	rep.P50Ms = 1000 * percentile(lats, 0.50)
	rep.P95Ms = 1000 * percentile(lats, 0.95)
	rep.P99Ms = 1000 * percentile(lats, 0.99)
	if n := len(lats); n > 0 {
		rep.MaxMs = 1000 * lats[n-1]
	}
	rep.P99UnderSLO = rep.P99Ms/1000 < rep.SLOSec
	if obs != nil {
		rep.ObserveFrac = opt.observeFrac
		rep.Observed = int(obs.observed.Load())
		rep.ObserveErrs = int(obs.errors.Load())
	}
	return rep, nil
}

// pace releases tokens at qps for the given duration, then closes the
// channel. Tokens nobody can accept are dropped and counted: a non-zero drop
// count means the worker pool, not the server, was the bottleneck.
func pace(tokens chan<- struct{}, qps float64, d time.Duration, dropped *atomic.Int64) {
	const step = 5 * time.Millisecond
	tick := time.NewTicker(step)
	defer tick.Stop()
	deadline := time.Now().Add(d)
	carry := 0.0
	for now := range tick.C {
		if now.After(deadline) {
			close(tokens)
			return
		}
		carry += qps * step.Seconds()
		n := int(carry)
		carry -= float64(n)
		for i := 0; i < n; i++ {
			select {
			case tokens <- struct{}{}:
			default:
				dropped.Add(1)
			}
		}
	}
}

// optReply is the slice of the /optimize response the load loop cares about:
// the serving disposition for the hit-ratio, and the run record + predicted
// objectives the observe loop echoes back as a simulated outcome.
type optReply struct {
	status     int
	served     string
	runRecord  string
	objectives map[string]float64
}

func post(client *http.Client, base string, body []byte) (optReply, error) {
	resp, err := client.Post(base+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		return optReply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var out struct {
			Served     string             `json:"served"`
			RunRecord  string             `json:"run_record"`
			Objectives map[string]float64 `json:"objectives"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return optReply{status: resp.StatusCode}, err
		}
		return optReply{status: resp.StatusCode, served: out.Served, runRecord: out.RunRecord, objectives: out.Objectives}, nil
	}
	io.Copy(io.Discard, resp.Body)
	return optReply{status: resp.StatusCode}, nil
}

// observer closes the loop for a sampled fraction of OK responses: it reports
// the "actual" outcome of the recommended configuration back over POST
// /observe, derived from the prediction by the configured bias and noise —
// a stand-in for executing the plan on the cluster. With -observe-bias far
// from 0 the fed-back outcomes diverge from predictions and the server's
// calib_drift watchdog rule fires; with bias 0 the ledger records a
// well-calibrated stream.
type observer struct {
	frac, bias, noise float64
	client            *http.Client
	base              string
	observed          atomic.Int64
	errors            atomic.Int64
}

func (o *observer) maybeObserve(rng *rand.Rand, rep optReply) {
	if o == nil || rep.runRecord == "" || len(rep.objectives) == 0 || rng.Float64() >= o.frac {
		return
	}
	actual := make(map[string]float64, len(rep.objectives))
	for k, v := range rep.objectives {
		actual[k] = v * (1 + o.bias) * (1 + o.noise*rng.NormFloat64())
	}
	body, _ := json.Marshal(service.ObserveRequest{Run: rep.runRecord, Actual: actual})
	resp, err := o.client.Post(o.base+"/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		o.errors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		o.errors.Add(1)
		return
	}
	o.observed.Add(1)
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func printReport(out io.Writer, r report) {
	fmt.Fprintf(out, "\nudao-loadgen — %.1fs @ target %.0f QPS, %d workers, %d workloads (pipeline frac %.2f)\n",
		r.DurationSec, r.TargetQPS, r.Workers, r.Workloads, r.PipelineFrac)
	fmt.Fprintf(out, "requests  %d ok %d shed %d errors %d dropped-ticks %d | achieved %.1f QPS\n",
		r.Requests, r.OK, r.Shed, r.Errors, r.DroppedTicks, r.AchievedQPS)
	fmt.Fprintf(out, "latency   p50 %.2fms p95 %.2fms p99 %.2fms max %.2fms (SLO %.1fs: p99 %s)\n",
		r.P50Ms, r.P95Ms, r.P99Ms, r.MaxMs, r.SLOSec, okStr(r.P99UnderSLO))
	fmt.Fprintf(out, "serving   cache hit ratio %.1f%% | shed rate %.2f%%\n",
		100*r.HitRatio, 100*r.ShedRate)
	if r.ObserveFrac > 0 {
		fmt.Fprintf(out, "observe   %d outcomes fed back (frac %.2f, %d errors)\n",
			r.Observed, r.ObserveFrac, r.ObserveErrs)
	}
}

func okStr(ok bool) string {
	if ok {
		return "ok"
	}
	return "BREACH"
}

func appendReport(path string, r report) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write(append(line, '\n'))
	return err
}
