package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/runlog"
	"repro/internal/watch"
)

// RunSummary is the /runs list view of one registry record — enough to spot
// a bad run without pulling the full frontier.
type RunSummary struct {
	ID             string         `json:"id"`
	Time           time.Time      `json:"time"`
	Workload       string         `json:"workload"`
	Objectives     []string       `json:"objectives"`
	FrontierPoints int            `json:"frontier_points"`
	Quality        runlog.Quality `json:"quality"`
	Evals          uint64         `json:"evals"`
	SolveSec       float64        `json:"solve_sec"`
	// Served distinguishes cached from fresh recommendations (PR 9
	// dispositions: hit, solve, expand, coalesced).
	Served     string `json:"served,omitempty"`
	TraceRunID string `json:"trace_run_id,omitempty"`
}

func summarize(rec runlog.Record) RunSummary {
	return RunSummary{
		ID:             rec.ID,
		Time:           rec.Time,
		Workload:       rec.Workload,
		Objectives:     rec.Objectives,
		FrontierPoints: len(rec.Frontier),
		Quality:        rec.Quality,
		Evals:          rec.Evals,
		SolveSec:       rec.SolveSec,
		Served:         rec.Served,
		TraceRunID:     rec.TraceRunID,
	}
}

// QualityPoint is one entry of the /workloads/{name}/quality series.
type QualityPoint struct {
	ID               string    `json:"id"`
	Time             time.Time `json:"time"`
	Hypervolume      float64   `json:"hypervolume"`
	Coverage         int       `json:"coverage"`
	Consistency      float64   `json:"consistency"`
	UncertainFrac    float64   `json:"uncertain_frac"`
	HypervolumeDelta float64   `json:"hypervolume_delta"`
	SolveSec         float64   `json:"solve_sec"`
}

// registerObservability mounts the run-registry and health endpoints on mux:
//
//	GET /runs                       list recorded runs (?workload=, ?limit=, ?since=RFC3339)
//	GET /runs/{id}                  one full record (frontier, quality, counters)
//	GET /workloads/{name}/quality   quality-over-time series for one workload
//	GET /alerts                     recent watchdog alerts, newest first (?limit=)
//	GET /healthz                    liveness (process up, watchdog sweep counters)
//	GET /readyz                     readiness (model server reachable, registry and alert log writable)
func (s *Service) registerObservability(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		out := map[string]any{"status": "ok"}
		if s.Watch != nil {
			wd := map[string]any{"evals": s.Watch.Evals()}
			if t := s.Watch.LastEval(); !t.IsZero() {
				wd["last_eval"] = t.Format(time.RFC3339)
			}
			out["watchdog"] = wd
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /alerts", func(w http.ResponseWriter, r *http.Request) {
		if s.Watch == nil {
			http.Error(w, "watchdog disabled", http.StatusServiceUnavailable)
			return
		}
		limit := 0
		if v := r.URL.Query().Get("limit"); v != "" {
			if _, err := fmt.Sscanf(v, "%d", &limit); err != nil || limit < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
		}
		alerts := s.Watch.Alerts(limit)
		if alerts == nil {
			alerts = []watch.Alert{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"alerts": alerts})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		status, report := s.readiness()
		writeJSON(w, status, report)
	})
	mux.HandleFunc("GET /runs", func(w http.ResponseWriter, r *http.Request) {
		if s.Runs == nil {
			http.Error(w, "run registry disabled", http.StatusServiceUnavailable)
			return
		}
		q := r.URL.Query()
		var since time.Time
		if v := q.Get("since"); v != "" {
			t, err := time.Parse(time.RFC3339, v)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad since: %v", err), http.StatusBadRequest)
				return
			}
			since = t
		}
		limit := 0
		if v := q.Get("limit"); v != "" {
			if _, err := fmt.Sscanf(v, "%d", &limit); err != nil || limit < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
		}
		recs := s.Runs.List(q.Get("workload"), since, limit)
		out := make([]RunSummary, len(recs))
		for i, rec := range recs {
			out[i] = summarize(rec)
		}
		writeJSON(w, http.StatusOK, map[string]any{"runs": out})
	})
	mux.HandleFunc("GET /runs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if s.Runs == nil {
			http.Error(w, "run registry disabled", http.StatusServiceUnavailable)
			return
		}
		id := r.PathValue("id")
		rec, ok := s.Runs.Get(id)
		if !ok {
			http.Error(w, fmt.Sprintf("no run %q", id), http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, rec)
	})
	mux.HandleFunc("GET /workloads/{name}/quality", func(w http.ResponseWriter, r *http.Request) {
		if s.Runs == nil {
			http.Error(w, "run registry disabled", http.StatusServiceUnavailable)
			return
		}
		name := r.PathValue("name")
		recs := s.Runs.List(name, time.Time{}, 0)
		if len(recs) == 0 {
			http.Error(w, fmt.Sprintf("no recorded runs for workload %q", name), http.StatusNotFound)
			return
		}
		series := make([]QualityPoint, len(recs))
		for i, rec := range recs {
			series[i] = QualityPoint{
				ID:               rec.ID,
				Time:             rec.Time,
				Hypervolume:      rec.Quality.Hypervolume,
				Coverage:         rec.Quality.Coverage,
				Consistency:      rec.Quality.Consistency,
				UncertainFrac:    rec.Quality.UncertainFrac,
				HypervolumeDelta: rec.Quality.HypervolumeDelta,
				SolveSec:         rec.SolveSec,
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"workload": name, "series": series})
	})
}

// readiness evaluates the gates: the model server must answer a Ping, and
// each configured journal — run registry, alert log, calibration ledger —
// must be writable: none of its asynchronous disk writes may have failed.
func (s *Service) readiness() (int, map[string]any) {
	checks := map[string]string{}
	ready := true
	if err := s.Server.Ping(); err != nil {
		checks["modelserver"] = err.Error()
		ready = false
	} else {
		checks["modelserver"] = "ok"
	}
	if s.Runs != nil {
		if err := s.Runs.Err(); err != nil {
			checks["runlog"] = err.Error()
			ready = false
		} else {
			checks["runlog"] = "ok"
		}
	}
	if s.Watch != nil {
		if err := s.Watch.Err(); err != nil {
			checks["alertlog"] = err.Error()
			ready = false
		} else {
			checks["alertlog"] = "ok"
		}
	}
	if s.Calib != nil {
		if err := s.Calib.Err(); err != nil {
			checks["caliblog"] = err.Error()
			ready = false
		} else {
			checks["caliblog"] = "ok"
		}
	}
	status := http.StatusOK
	state := "ready"
	if !ready {
		status = http.StatusServiceUnavailable
		state = "not ready"
	}
	return status, map[string]any{"status": state, "checks": checks}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
