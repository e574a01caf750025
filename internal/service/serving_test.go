package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestConcurrentSolvesOverlap is the PR's bugfix regression test: no service
// lock may be held across a solve, so two slow solves for DIFFERENT
// workloads must run simultaneously. Both workloads are solved cold (model
// training plus a large probe budget, so each flight lasts a long time)
// while a monitor polls the serving in-flight gauge: it must observe both
// solves admitted at once. Request-window overlap alone would not catch the
// old bug — a request stuck behind a service lock still "starts" at the
// barrier — but the in-flight gauge only counts solves actually running.
func TestConcurrentSolvesOverlap(t *testing.T) {
	svc, workloads := buildPipelineService(t)
	svc.MaxInflight = 4
	svc.ShedWait = time.Minute
	svc.Telemetry = telemetry.New()
	inflight := svc.Telemetry.Metrics.Gauge(telemetry.MetricServingInflight)
	var maxInflight atomic.Int64
	monitorDone := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if n := int64(inflight.Value()); n > maxInflight.Load() {
				maxInflight.Store(n)
			}
		}
	}()
	var wg sync.WaitGroup
	barrier := make(chan struct{})
	for _, wl := range workloads {
		wg.Add(1)
		go func(wl string) {
			defer wg.Done()
			<-barrier
			resp, err := svc.Optimize(OptimizeRequest{Workload: wl, Probes: 120})
			if err != nil {
				t.Errorf("workload %s: %v", wl, err)
				return
			}
			if resp.Served != "solve" {
				t.Errorf("workload %s: served %q, want \"solve\" (a cold slow solve)", wl, resp.Served)
			}
		}(wl)
	}
	close(barrier)
	wg.Wait()
	close(stop)
	<-monitorDone
	if maxInflight.Load() < 2 {
		t.Fatalf("at most %d solve(s) were ever in flight at once — a lock is serializing solves for different workloads",
			maxInflight.Load())
	}
}

// hammerProfile is the mixed request profile: two flat workloads, an
// objective-order variant, and a two-stage pipeline — four distinct serving
// keys.
func hammerProfile(workloads []string) []OptimizeRequest {
	return []OptimizeRequest{
		{Workload: workloads[0], Probes: 5},
		{Workload: workloads[1], Probes: 5},
		{Workload: workloads[0], Objectives: []string{"cores", "latency"}, Probes: 5},
		{Workload: "pipe", Stages: workloads, Probes: 5},
	}
}

// TestOptimizeHammer runs 64 goroutines of mixed flat/pipeline requests
// (varying weights) against one Service over httptest and proves the serving
// contract end to end: every request succeeds, identical in-flight requests
// coalesce onto ONE solve per distinct key (solve count < request count, and
// exactly one miss per key), and the optimizer map stays bounded. CI runs
// this under -race, which also makes it the concurrency audit of the whole
// request path (serving cache, model server, telemetry, per-waiter
// Recommend on a shared frontier).
func TestOptimizeHammer(t *testing.T) {
	svc, workloads := buildPipelineService(t)
	svc.Telemetry = telemetry.New()
	svc.CacheEntries = 64
	// This test is about coalescing, not shedding: give the cold-start burst
	// (4 leaders training GP models under -race while 252 waiters park) all
	// the time it needs.
	svc.ShedWait = 30 * time.Second
	svc.CoalesceWait = 60 * time.Second
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	profile := hammerProfile(workloads)
	const goroutines = 64
	const perG = 4
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				req := profile[(g+i)%len(profile)]
				// Distinct weights per request: every waiter applies its own
				// preference to the shared frontier.
				w := 0.1 + float64((g*perG+i)%9)/10
				req.Weights = []float64{w, 1 - w}
				body, _ := json.Marshal(req)
				resp, err := http.Post(srv.URL+"/optimize", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					failures.Add(1)
					return
				}
				var out OptimizeResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || err != nil {
					t.Errorf("goroutine %d: status %d decode err %v", g, resp.StatusCode, err)
					failures.Add(1)
					return
				}
				if len(out.Config) == 0 {
					t.Errorf("goroutine %d: empty config", g)
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d requests failed", failures.Load())
	}
	st := svc.serving().Stats()
	m := svc.Telemetry.Metrics
	total := goroutines * perG
	if st.Requests != uint64(total) {
		t.Fatalf("serving saw %d requests, want %d", st.Requests, total)
	}
	solves := m.Counter(telemetry.MetricServingMisses).Value() + m.Counter(telemetry.MetricServingExpands).Value()
	if solves != uint64(len(profile)) {
		t.Fatalf("%d solves for %d distinct keys — identical in-flight requests did not coalesce", solves, len(profile))
	}
	coalesced := m.Counter(telemetry.MetricServingCoalesced).Value()
	if st.Hits+coalesced != uint64(total-len(profile)) {
		t.Fatalf("hits(%d)+coalesced(%d) != %d", st.Hits, coalesced, total-len(profile))
	}
	if n := int(m.Gauge(telemetry.MetricServingEntries).Value()); n != len(profile) || n > svc.CacheEntries {
		t.Fatalf("optimizer map holds %d entries for %d keys (cap %d)", n, len(profile), svc.CacheEntries)
	}
}

// TestAdmissionSaturationReturns429 saturates a MaxInflight=1 service with
// cold requests for distinct keys: exactly one can hold the solve slot, so
// the rest must come back 429 with a Retry-After header once the (tiny)
// shed deadline passes.
func TestAdmissionSaturationReturns429(t *testing.T) {
	svc, workloads := buildPipelineService(t)
	svc.MaxInflight = 1
	svc.ShedWait = time.Millisecond
	svc.Telemetry = telemetry.New()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Distinct keys that cannot coalesce with each other: objective-order
	// variants of the two workloads.
	reqs := []OptimizeRequest{
		{Workload: workloads[0], Probes: 30},
		{Workload: workloads[1], Probes: 30},
		{Workload: workloads[0], Objectives: []string{"cores", "latency"}, Probes: 30},
		{Workload: workloads[1], Objectives: []string{"cores", "latency"}, Probes: 30},
	}
	var wg sync.WaitGroup
	var shed, ok atomic.Int64
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r OptimizeRequest) {
			defer wg.Done()
			body, _ := json.Marshal(r)
			resp, err := http.Post(srv.URL+"/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("request %d: 429 without Retry-After", i)
				}
				shed.Add(1)
			default:
				t.Errorf("request %d: unexpected status %d", i, resp.StatusCode)
			}
		}(i, r)
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatalf("no request was shed with 429 (ok=%d): admission control is not biting", ok.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("every request was shed; the slot holder should have succeeded")
	}
	if n := svc.Telemetry.Metrics.Counter(telemetry.MetricShed).Value(); n != uint64(shed.Load()) {
		t.Fatalf("%s = %d != %d observed 429s", telemetry.MetricShed, n, shed.Load())
	}
	// The shed keys are retryable: once the burst drains, the same requests
	// must succeed.
	for i, r := range reqs {
		body, _ := json.Marshal(r)
		resp, err := http.Post(srv.URL+"/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("retry of request %d: status %d", i, resp.StatusCode)
		}
	}
}
