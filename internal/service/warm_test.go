package service

import (
	"testing"

	"repro/internal/telemetry"
)

// restartedService simulates a process restart: a fresh Service (cold serving
// cache, fresh telemetry) over the same model server and the same durable run
// registry.
func restartedService(t *testing.T, svc *Service) *Service {
	t.Helper()
	s2 := New(svc.Server)
	s2.Exact = svc.Exact
	s2.Seed = svc.Seed
	s2.Telemetry = telemetry.New()
	s2.Runs = svc.Runs
	return s2
}

func TestWarmCachePrimesFromRegistry(t *testing.T) {
	svc, wl, _ := buildObservableService(t)
	resp, err := svc.Optimize(OptimizeRequest{Workload: wl, Weights: []float64{0.5, 0.5}, Probes: 15})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Served != "solve" {
		t.Fatalf("seed request served %q, want solve", resp.Served)
	}

	s2 := restartedService(t, svc)
	if warmed := s2.WarmCache(0); warmed != 1 {
		t.Fatalf("WarmCache = %d, want 1", warmed)
	}
	if got := s2.Telemetry.Metrics.Snapshot().Counters[telemetry.MetricServingWarmup]; got != 1 {
		t.Fatalf("%s = %d, want 1", telemetry.MetricServingWarmup, got)
	}
	// The first live request after warm-up answers from the primed frontier.
	resp2, err := s2.Optimize(OptimizeRequest{Workload: wl, Weights: []float64{0.5, 0.5}, Probes: 15})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Served != "hit" {
		t.Fatalf("post-warm-up request served %q, want hit", resp2.Served)
	}
	if len(resp2.Config) == 0 || len(resp2.Objectives) == 0 {
		t.Fatalf("warmed answer missing payload: %+v", resp2)
	}
}

func TestWarmCacheDedupesAndBounds(t *testing.T) {
	svc, wl, _ := buildObservableService(t)
	// Two records for one key plus one record for a second key (a different
	// objective list is a different serving-cache entry).
	for i := 0; i < 2; i++ {
		if _, err := svc.Optimize(OptimizeRequest{Workload: wl, Probes: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Optimize(OptimizeRequest{Workload: wl, Objectives: []string{"latency"}, Probes: 10}); err != nil {
		t.Fatal(err)
	}

	s2 := restartedService(t, svc)
	if warmed := s2.WarmCache(0); warmed != 2 {
		t.Fatalf("WarmCache(0) = %d, want 2 distinct keys", warmed)
	}
	if got := s2.Telemetry.Metrics.Counter(telemetry.MetricServingWarmup).Value(); got != 2 {
		t.Fatalf("%s = %d, want 2", telemetry.MetricServingWarmup, got)
	}

	// max bounds the keys attempted, newest record first.
	s3 := restartedService(t, svc)
	if warmed := s3.WarmCache(1); warmed != 1 {
		t.Fatalf("WarmCache(1) = %d, want 1", warmed)
	}
	resp, err := s3.Optimize(OptimizeRequest{Workload: wl, Objectives: []string{"latency"}, Probes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Served != "hit" {
		t.Fatalf("newest key not the one warmed: served %q", resp.Served)
	}
}
