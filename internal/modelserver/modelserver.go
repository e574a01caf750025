// Package modelserver implements the paper's model server (§V): it turns
// collected traces into per-(workload, objective) predictive models — GPs in
// the OtterTune comparison, DNNs for the headline results — retrains from
// scratch when a workload's trace count changes, and answers model requests
// over HTTP/JSON (POST /predict, the paper's "network sockets" interface).
// The paper's handcrafted models, its small-update fine-tuning and its DNN
// weight checkpoints are not reproduced: every program here collects its
// traces before the first model request, trains GP or DNN models from them
// and keeps them in memory.
//
// The paper runs training asynchronously in the background; the library
// collapses that to training-on-demand with caching, which preserves the
// architectural split the paper cares about: MOO only ever sees Model
// values, never the training pipeline.
package modelserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/model"
	"repro/internal/model/dnn"
	"repro/internal/model/gp"
	"repro/internal/space"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// ErrNotFound reports a workload with no collected traces; HTTP layers map it
// to 404 with errors.Is.
var ErrNotFound = errors.New("workload not found")

// Kind selects the model family.
type Kind int

// Model families.
const (
	GP Kind = iota
	DNN
)

// Config controls training.
type Config struct {
	Kind Kind
	// DNNCfg configures DNN training (§V: up to 4×128 ReLU, Adam).
	DNNCfg dnn.Config
	// GPCfg configures GP hyperparameter learning.
	GPCfg gp.Config
	// LogTargets trains GP/DNN models on log(y) and exponentiates
	// predictions, keeping extrapolations positive — appropriate for
	// latency, cost and throughput objectives, whose cluster noise is
	// multiplicative. Objectives with non-positive observations fall back
	// to the raw scale automatically.
	LogTargets bool
	// Telemetry, when non-nil, counts trainings, records training latency,
	// and emits a trace event per training.
	Telemetry *telemetry.Telemetry
}

func (c *Config) defaults() {
	if len(c.DNNCfg.Hidden) == 0 {
		c.DNNCfg.Hidden = []int{64, 64}
	}
}

type trainedModel struct {
	m       model.Model
	atCount int // trace count when (re)trained
}

// Server trains and caches models over a trace store.
type Server struct {
	mu    sync.Mutex
	spc   *space.Space
	store *trace.Store
	cfg   Config
	cache map[string]*trainedModel // key: workload + "\x00" + objective

	telTrain  *telemetry.Counter
	telTrainH *telemetry.Histogram
	tracer    *telemetry.Tracer

	// Trace context: the run ID and parent span the next trainings are
	// attributed to. The server is shared across requests, so the service
	// sets this per /optimize; concurrent requests overwrite each other and
	// the latest setter wins — attribution, not isolation.
	spanMu     sync.Mutex
	spanRun    string
	spanParent uint64
}

// SetTraceContext attributes subsequent trainings to the given trace run and
// parent span (both zero values detach). The service calls this around
// optimizer construction so model (re)training shows up inside the request's
// span tree.
func (s *Server) SetTraceContext(run string, parent uint64) {
	s.spanMu.Lock()
	s.spanRun, s.spanParent = run, parent
	s.spanMu.Unlock()
}

func (s *Server) traceContext() (string, uint64) {
	s.spanMu.Lock()
	defer s.spanMu.Unlock()
	return s.spanRun, s.spanParent
}

// New builds a server over the store.
func New(spc *space.Space, store *trace.Store, cfg Config) *Server {
	cfg.defaults()
	s := &Server{spc: spc, store: store, cfg: cfg, cache: map[string]*trainedModel{}}
	if tel := cfg.Telemetry; tel != nil {
		s.telTrain = tel.Metrics.Counter(telemetry.MetricModelTrainings)
		s.telTrainH = tel.Metrics.Histogram(telemetry.MetricModelTrainTime, "", nil)
		s.tracer = tel.Trace
	}
	return s
}

// Ping reports whether the model server can answer model requests: the trace
// store and decision space it trains over must be attached. The service's
// /readyz gate calls it — in the paper's deployment the model server is a
// separate process behind a socket, and the MOO side must not report ready
// until its model source is reachable.
func (s *Server) Ping() error {
	if s == nil {
		return fmt.Errorf("modelserver: nil server: %w", ErrNotFound)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return errors.New("modelserver: no trace store attached")
	}
	if s.spc == nil {
		return errors.New("modelserver: no decision space attached")
	}
	return nil
}

// Space exposes the decision space models are trained over.
func (s *Server) Space() *space.Space { return s.spc }

func key(workload, objective string) string { return workload + "\x00" + objective }

// Model returns the model for (workload, objective), training it from the
// current traces on first use and again whenever the workload's trace count
// has changed since.
func (s *Server) Model(workload, objective string) (model.Model, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries := s.store.ForWorkload(workload)
	if len(entries) == 0 {
		return nil, fmt.Errorf("modelserver: no traces for workload %q: %w", workload, ErrNotFound)
	}
	k := key(workload, objective)
	cached, ok := s.cache[k]
	if ok && cached.atCount == len(entries) {
		return cached.m, nil
	}
	trainStart := time.Now()
	run, parent := s.traceContext()
	span := s.tracer.StartSpan(telemetry.LevelRun, run, parent, "model", "train")
	X, y, err := dataset(entries, objective, s.spc.Dim())
	if err != nil {
		span.End("error", nil)
		return nil, err
	}
	logScale := s.cfg.LogTargets
	if logScale {
		for _, v := range y {
			if v <= 0 {
				logScale = false
				break
			}
		}
	}
	if logScale {
		ly := make([]float64, len(y))
		for i, v := range y {
			ly[i] = math.Log(v)
		}
		y = ly
	}
	var m model.Model
	if s.cfg.Kind == DNN {
		m = trainDNN(k, X, y, s.cfg.DNNCfg)
	} else {
		m, err = gp.Fit(X, y, s.cfg.GPCfg)
	}
	if err != nil {
		span.End("error", nil)
		return nil, fmt.Errorf("modelserver: training %s/%s: %w", workload, objective, err)
	}
	if logScale {
		m = model.Exp{M: m}
	}
	s.cache[k] = &trainedModel{m: m, atCount: len(entries)}
	if s.telTrain != nil {
		dur := time.Since(trainStart)
		s.telTrain.Add(1)
		s.telTrainH.Observe(dur.Seconds())
		if span.Recording() {
			span.End(workload+"/"+objective, map[string]float64{"traces": float64(len(entries))})
		}
	}
	return m, nil
}

// trainDNN trains a new network for key k on (X, y).
func trainDNN(k string, X [][]float64, y []float64, cfg dnn.Config) *dnn.Net {
	cfg.Seed = int64(len(k)) // deterministic per (workload, objective)
	net := dnn.New(len(X[0]), cfg)
	net.Fit(X, y)
	return net
}

func dataset(entries []trace.Entry, objective string, dim int) ([][]float64, []float64, error) {
	X := make([][]float64, 0, len(entries))
	y := make([]float64, 0, len(entries))
	for _, e := range entries {
		v, ok := e.Objectives[objective]
		if !ok {
			return nil, nil, fmt.Errorf("modelserver: trace missing objective %q", objective)
		}
		if len(e.X) != dim {
			return nil, nil, fmt.Errorf("modelserver: trace has %d dims, space has %d", len(e.X), dim)
		}
		X = append(X, e.X)
		y = append(y, v)
	}
	return X, y, nil
}

// WMAPE computes the weighted mean absolute percentage error of the model
// against held-out entries — the accuracy measure of Expt 4/5 ("percentage
// error weighted by the objective value").
func WMAPE(m model.Model, entries []trace.Entry, objective string) float64 {
	num, den := 0.0, 0.0
	for _, e := range entries {
		truth, ok := e.Objectives[objective]
		if !ok {
			continue
		}
		num += math.Abs(m.Predict(e.X) - truth)
		den += math.Abs(truth)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// predictRequest/predictResponse are the HTTP wire types.
type predictRequest struct {
	Workload  string    `json:"workload"`
	Objective string    `json:"objective"`
	X         []float64 `json:"x"`
}

type predictResponse struct {
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
}

// Handler exposes the server over HTTP: POST /predict with a predictRequest
// returns the model's mean and variance; GET /workloads lists workloads with
// traces. This is the "network sockets" boundary between the model server
// and MOO (§V).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var req predictRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		m, err := s.Model(req.Workload, req.Objective)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		if len(req.X) != m.Dim() {
			http.Error(w, fmt.Sprintf("x has %d dims, want %d", len(req.X), m.Dim()), http.StatusBadRequest)
			return
		}
		var resp predictResponse
		if u, ok := m.(model.Uncertain); ok {
			resp.Mean, resp.Variance = u.PredictVar(req.X)
		} else {
			resp.Mean = m.Predict(req.X)
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/workloads", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.store.Workloads())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
