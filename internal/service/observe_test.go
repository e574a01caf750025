package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/calib"
)

// buildCalibService is buildObservableService plus a calibration ledger at
// dir/calib.jsonl — the full observe loop, minus the watchdog.
func buildCalibService(t *testing.T, dir string, opts calib.Options) (*Service, string, *calib.Ledger) {
	t.Helper()
	svc, wl, _ := buildObservableService(t)
	if opts.Telemetry == nil {
		opts.Telemetry = svc.Telemetry
	}
	led, err := calib.Open(filepath.Join(dir, "calib.jsonl"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	svc.Calib = led
	return svc, wl, led
}

func postObserve(t *testing.T, url string, req ObserveRequest, wantStatus int) *ObserveResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		blob, _ := io.ReadAll(resp.Body)
		t.Fatalf("observe status = %d, want %d: %s", resp.StatusCode, wantStatus, blob)
	}
	if wantStatus != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	var out ObserveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func TestObserveEndToEnd(t *testing.T) {
	svc, wl, led := buildCalibService(t, t.TempDir(), calib.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	opt := postOptimize(t, ts.URL, OptimizeRequest{Workload: wl, Weights: []float64{0.5, 0.5}, Probes: 12})
	if opt.RunRecord == "" {
		t.Fatal("response missing run_record")
	}

	// Join by run ID: outcome 2x the predicted latency.
	actual := map[string]float64{}
	for k, v := range opt.Objectives {
		actual[k] = 2 * v
	}
	obs := postObserve(t, ts.URL, ObserveRequest{Run: opt.RunRecord, Actual: actual}, http.StatusOK)
	if obs.Pair.Run != opt.RunRecord || obs.Pair.Workload != wl {
		t.Fatalf("pair misjoined: %+v", obs.Pair)
	}
	if obs.Pair.Served == "" {
		t.Fatalf("pair lost the serving disposition: %+v", obs.Pair)
	}
	if got := obs.Pair.RelErr["latency"]; got < 0.49 || got > 0.51 {
		t.Fatalf("latency rel err = %v, want ~0.5 (actual = 2x predicted)", got)
	}

	// Join by workload+config: the executed knobs match the recommendation.
	obs2 := postObserve(t, ts.URL, ObserveRequest{Workload: wl, Config: opt.Config, Actual: actual}, http.StatusOK)
	if obs2.Pair.Run != opt.RunRecord {
		t.Fatalf("config join found %q, want %q", obs2.Pair.Run, opt.RunRecord)
	}

	// The calibration endpoint serves the rolling stats.
	var calOut struct {
		Workload    string                 `json:"workload"`
		Window      int                    `json:"window"`
		Calibration []calib.ObjectiveStats `json:"calibration"`
	}
	getJSON(t, ts.URL+"/workloads/"+wl+"/calibration", http.StatusOK, &calOut)
	if calOut.Workload != wl || len(calOut.Calibration) == 0 || calOut.Window != led.Window() {
		t.Fatalf("calibration endpoint: %+v", calOut)
	}
	getJSON(t, ts.URL+"/workloads/absent/calibration", http.StatusNotFound, nil)
}

// TestObserveUnknownRunLeavesLedgerIntact pins the 404 contract: a
// misdirected outcome must not append anything.
func TestObserveUnknownRunLeavesLedgerIntact(t *testing.T) {
	svc, wl, led := buildCalibService(t, t.TempDir(), calib.Options{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	postObserve(t, ts.URL, ObserveRequest{Run: "run-999999", Actual: map[string]float64{"latency": 1}}, http.StatusNotFound)
	postObserve(t, ts.URL, ObserveRequest{Workload: wl, Config: map[string]float64{"nope": 1}, Actual: map[string]float64{"latency": 1}}, http.StatusNotFound)
	postObserve(t, ts.URL, ObserveRequest{Workload: wl, Actual: map[string]float64{}}, http.StatusBadRequest)
	if led.Len() != 0 {
		t.Fatalf("rejected outcomes reached the ledger: %d pairs", led.Len())
	}

	// An outcome naming none of the predicted objectives is a 400, and the
	// ledger still takes valid pairs afterwards.
	opt := postOptimize(t, ts.URL, OptimizeRequest{Workload: wl, Probes: 10})
	postObserve(t, ts.URL, ObserveRequest{Run: opt.RunRecord, Actual: map[string]float64{"throughput": 9}}, http.StatusBadRequest)
	postObserve(t, ts.URL, ObserveRequest{Run: opt.RunRecord, Actual: map[string]float64{"latency": 9}}, http.StatusOK)
	if led.Len() != 1 {
		t.Fatalf("ledger pairs = %d, want 1", led.Len())
	}
}

// TestObserveOptimizeConcurrent hammers /optimize and /observe from parallel
// clients (run with -race in CI): every outcome joins against a live, mutating
// run registry while solves and ledger appends overlap. The tiny MaxBytes
// forces ledger rotation mid-stream; afterwards every accepted pair must be
// readable from disk with distinct IDs.
func TestObserveOptimizeConcurrent(t *testing.T) {
	dir := t.TempDir()
	svc, wl, led := buildCalibService(t, dir, calib.Options{MaxBytes: 4096, Keep: 64})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const workers = 6
	const perWorker = 5
	var wg sync.WaitGroup
	var observed atomic.Int64
	errs := make(chan error, workers*perWorker)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Alternate objective shapes so solves and cache hits overlap.
				req := OptimizeRequest{Workload: wl, Probes: 8}
				if g%2 == 1 {
					req.Objectives = []string{"latency"}
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/optimize", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					// Admission control may shed under the burst; a shed
					// request simply has no outcome to report.
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					continue
				}
				var opt OptimizeResponse
				err = json.NewDecoder(resp.Body).Decode(&opt)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				actual := map[string]float64{}
				for k, v := range opt.Objectives {
					actual[k] = v * 1.25
				}
				ob, _ := json.Marshal(ObserveRequest{Run: opt.RunRecord, Actual: actual})
				oresp, err := http.Post(ts.URL+"/observe", "application/json", bytes.NewReader(ob))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, oresp.Body)
				oresp.Body.Close()
				if oresp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("observe status %d", oresp.StatusCode)
					return
				}
				observed.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := int(observed.Load())
	if want == 0 {
		t.Fatal("every optimize request was shed; nothing observed")
	}
	if led.Len() != want {
		t.Fatalf("ledger pairs = %d, want %d", led.Len(), want)
	}
	if err := led.Sync(); err != nil {
		t.Fatalf("ledger write error after concurrent stream: %v", err)
	}
	pairs, err := calib.Load(filepath.Join(dir, "calib.jsonl"))
	if err != nil {
		t.Fatalf("reading rotated ledger back: %v", err)
	}
	ids := map[string]bool{}
	for _, p := range pairs {
		if ids[p.ID] {
			t.Fatalf("duplicate pair ID %s on disk", p.ID)
		}
		ids[p.ID] = true
	}
	if len(pairs) != want {
		t.Fatalf("disk holds %d pairs, want %d", len(pairs), want)
	}
}
