package serving

import (
	"errors"
	"testing"

	udao "repro"
	"repro/internal/telemetry"
)

func TestPrimeThenAcquireHits(t *testing.T) {
	tel := telemetry.New()
	c := NewCache(Config{Telemetry: tel})
	build, solve, builds, solves := counters(t)
	primed, err := c.Prime("k", 10, build, solve)
	if err != nil || !primed {
		t.Fatalf("Prime = (%v, %v), want (true, nil)", primed, err)
	}
	l, out, err := c.Acquire("k", 10, build, solve)
	if err != nil {
		t.Fatal(err)
	}
	if out != Hit {
		t.Fatalf("acquire after prime: outcome %v, want Hit", out)
	}
	l.Release()
	if builds.Load() != 1 || solves.Load() != 1 {
		t.Fatalf("builds=%d solves=%d, want 1 and 1", builds.Load(), solves.Load())
	}
	st := c.Stats()
	warmups, misses := seriesValue(tel, telemetry.MetricServingWarmup), seriesValue(tel, telemetry.MetricServingMisses)
	// Prime is not a request: only the Acquire shows in the request rates.
	if warmups != 1 || st.Requests != 1 || st.Hits != 1 || misses != 0 {
		t.Fatalf("stats %+v, %d warmups and %d misses, want 1 warmup, 1 request, 1 hit, 0 misses", st, warmups, misses)
	}
}

func TestPrimeIsIdempotent(t *testing.T) {
	tel := telemetry.New()
	c := NewCache(Config{Telemetry: tel})
	build, solve, builds, _ := counters(t)
	if primed, err := c.Prime("k", 10, build, solve); err != nil || !primed {
		t.Fatalf("first Prime = (%v, %v)", primed, err)
	}
	// Same or lower target: already warm, leave the entry alone.
	for _, probes := range []int{10, 5} {
		if primed, err := c.Prime("k", probes, build, solve); err != nil || primed {
			t.Fatalf("Prime(%d) on warm entry = (%v, %v), want (false, nil)", probes, primed, err)
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1", builds.Load())
	}
	if n := seriesValue(tel, telemetry.MetricServingWarmup); n != 1 {
		t.Fatalf("warmups = %d, want 1", n)
	}
}

func TestPrimeExpandsCoarseEntry(t *testing.T) {
	tel := telemetry.New()
	c := NewCache(Config{Telemetry: tel})
	opt := testOptimizer(t)
	var deltas []int
	build := func() (*udao.Optimizer, error) { return opt, nil }
	solve := func(_ *udao.Optimizer, d int) error { deltas = append(deltas, d); return nil }
	if primed, err := c.Prime("k", 10, build, solve); err != nil || !primed {
		t.Fatalf("first Prime = (%v, %v)", primed, err)
	}
	// A deeper warm-up target resumes the cached run for the difference.
	if primed, err := c.Prime("k", 25, build, solve); err != nil || !primed {
		t.Fatalf("deeper Prime = (%v, %v)", primed, err)
	}
	if len(deltas) != 2 || deltas[0] != 10 || deltas[1] != 15 {
		t.Fatalf("solve deltas = %v, want [10 15]", deltas)
	}
	if n := seriesValue(tel, telemetry.MetricServingWarmup); n != 2 {
		t.Fatalf("warmups = %d, want 2", n)
	}
}

func TestPrimeBuildErrorIsNotSticky(t *testing.T) {
	tel := telemetry.New()
	c := NewCache(Config{Telemetry: tel})
	boom := errors.New("train failed")
	bad := func() (*udao.Optimizer, error) { return nil, boom }
	solve := func(_ *udao.Optimizer, _ int) error { return nil }
	if primed, err := c.Prime("k", 10, bad, solve); primed || !errors.Is(err, boom) {
		t.Fatalf("Prime with failing build = (%v, %v), want (false, boom)", primed, err)
	}
	if n := seriesValue(tel, telemetry.MetricServingWarmup); n != 0 {
		t.Fatalf("failed prime counted as %d warmups", n)
	}
	// The failed flight must not poison the entry: a later Prime succeeds.
	build, good, builds, _ := counters(t)
	if primed, err := c.Prime("k", 10, build, good); err != nil || !primed {
		t.Fatalf("Prime after failure = (%v, %v), want (true, nil)", primed, err)
	}
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1", builds.Load())
	}
}
