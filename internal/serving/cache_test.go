package serving

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	udao "repro"
	"repro/internal/model"
	"repro/internal/telemetry"
)

// testOptimizer builds a cheap 1-knob optimizer; serving never solves it in
// these tests (the Solver callback is the caller's), so construction cost is
// all that matters.
func testOptimizer(t testing.TB) *udao.Optimizer {
	t.Helper()
	spc, err := udao.NewSpace([]udao.Var{{Name: "cores", Kind: udao.Integer, Min: 1, Max: 24}})
	if err != nil {
		t.Fatal(err)
	}
	lat := model.Func{D: 1, F: func(x []float64) float64 { return math.Max(100, 2400/(1+23*x[0])) }}
	cost := model.Func{D: 1, F: func(x []float64) float64 { return 1 + 23*x[0] }}
	opt, err := udao.NewOptimizer(spc, []udao.Objective{
		{Name: "latency", Model: lat},
		{Name: "cores", Model: cost},
	}, udao.Options{Probes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// seriesValue reads one of the cache's telemetry counters.
func seriesValue(tel *telemetry.Telemetry, series string) uint64 {
	return tel.Metrics.Counter(series).Value()
}

func counters(t testing.TB) (build Builder, solve Solver, builds, solves *atomic.Int64) {
	builds, solves = new(atomic.Int64), new(atomic.Int64)
	opt := testOptimizer(t)
	build = func() (*udao.Optimizer, error) { builds.Add(1); return opt, nil }
	solve = func(_ *udao.Optimizer, _ int) error { solves.Add(1); return nil }
	return
}

func TestAcquireBuildsOnceThenHits(t *testing.T) {
	tel := telemetry.New()
	c := NewCache(Config{Telemetry: tel})
	build, solve, builds, solves := counters(t)
	l, out, err := c.Acquire("k", 10, build, solve)
	if err != nil {
		t.Fatal(err)
	}
	if out != Solved {
		t.Fatalf("first acquire: outcome %v, want Solved", out)
	}
	l.Release()
	for i := 0; i < 3; i++ {
		l, out, err = c.Acquire("k", 10, build, solve)
		if err != nil {
			t.Fatal(err)
		}
		if out != Hit {
			t.Fatalf("repeat acquire %d: outcome %v, want Hit", i, out)
		}
		l.Release()
	}
	if builds.Load() != 1 || solves.Load() != 1 {
		t.Fatalf("builds=%d solves=%d, want 1 and 1", builds.Load(), solves.Load())
	}
	st, misses := c.Stats(), seriesValue(tel, telemetry.MetricServingMisses)
	if st.Requests != 4 || misses != 1 || st.Hits != 3 {
		t.Fatalf("stats %+v and %d misses, want 4 requests, 1 miss, 3 hits", st, misses)
	}
}

func TestIncrementalExpand(t *testing.T) {
	c := NewCache(Config{})
	opt := testOptimizer(t)
	var deltas []int
	build := func() (*udao.Optimizer, error) { return opt, nil }
	solve := func(o *udao.Optimizer, d int) error {
		deltas = append(deltas, d)
		_, err := o.Expand(d)
		return err
	}
	steps := []struct {
		probes int
		want   Outcome
	}{
		{10, Solved},   // cold: full target
		{30, Expanded}, // coarser than asked: resume for the difference
		{5, Hit},       // finer than asked: cached frontier suffices
		{30, Hit},
	}
	for i, s := range steps {
		l, out, err := c.Acquire("k", s.probes, build, solve)
		if err != nil {
			t.Fatal(err)
		}
		if out != s.want {
			t.Fatalf("step %d (probes %d): outcome %v, want %v", i, s.probes, out, s.want)
		}
		if n := l.Optimizer().Probes(); n < s.probes {
			t.Fatalf("step %d: leased optimizer has %d probes invested, want >= %d", i, n, s.probes)
		}
		l.Release()
	}
	if len(deltas) != 2 || deltas[0] != 10 || deltas[1] != 20 {
		t.Fatalf("solve deltas %v, want [10 20]", deltas)
	}
}

func TestCoalescingSingleflight(t *testing.T) {
	tel := telemetry.New()
	c := NewCache(Config{CoalesceMax: 10 * time.Second, Telemetry: tel})
	builds, solves := new(atomic.Int64), new(atomic.Int64)
	opt := testOptimizer(t)
	inSolve := make(chan struct{})
	finish := make(chan struct{})
	build := func() (*udao.Optimizer, error) { builds.Add(1); return opt, nil }
	solve := func(_ *udao.Optimizer, _ int) error {
		solves.Add(1)
		close(inSolve)
		<-finish
		return nil
	}
	const waiters = 15
	var wg sync.WaitGroup
	var coalesced atomic.Int64
	launch := func() {
		defer wg.Done()
		l, out, err := c.Acquire("k", 10, build, solve)
		if err != nil {
			t.Error(err)
			return
		}
		if out == Coalesced {
			coalesced.Add(1)
		}
		l.Release()
	}
	wg.Add(1)
	go launch()
	<-inSolve // the leader is mid-solve; everyone else must coalesce
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go launch()
	}
	time.Sleep(20 * time.Millisecond) // let the waiters park on the flight
	close(finish)
	wg.Wait()
	if builds.Load() != 1 || solves.Load() != 1 {
		t.Fatalf("builds=%d solves=%d for %d identical concurrent requests, want 1 and 1",
			builds.Load(), solves.Load(), waiters+1)
	}
	if coalesced.Load() != waiters {
		t.Fatalf("%d of %d waiters coalesced, want all", coalesced.Load(), waiters)
	}
	if n := seriesValue(tel, telemetry.MetricServingCoalesced); n != waiters {
		t.Fatalf("%s = %d, want %d", telemetry.MetricServingCoalesced, n, waiters)
	}
}

// TestLRUEvictionBoundsEntries inserts 400 distinct keys at the default
// config and checks that the cache keeps exactly Entries of them, the most
// recent, and rebuilds an evicted key.
func TestLRUEvictionBoundsEntries(t *testing.T) {
	const keys = 400
	for _, entries := range []int{4, 10, 100} {
		t.Run(fmt.Sprintf("entries-%d", entries), func(t *testing.T) {
			tel := telemetry.New()
			c := NewCache(Config{Entries: entries, Telemetry: tel})
			build, solve, builds, _ := counters(t)
			acquire := func(i int) Outcome {
				t.Helper()
				l, out, err := c.Acquire(fmt.Sprintf("k%d", i), 5, build, solve)
				if err != nil {
					t.Fatal(err)
				}
				l.Release()
				return out
			}
			for i := 0; i < keys; i++ {
				acquire(i)
			}
			if n := tel.Metrics.Gauge(telemetry.MetricServingEntries).Value(); n != float64(entries) {
				t.Fatalf("%v entries cached, capacity %d", n, entries)
			}
			lru := telemetry.Labeled(telemetry.MetricServingEvictions, "reason", "lru")
			if n := seriesValue(tel, lru); n != uint64(keys-entries) {
				t.Fatalf("%s = %d, want %d", lru, n, keys-entries)
			}
			for i := keys - entries; i < keys; i++ {
				if out := acquire(i); out != Hit {
					t.Fatalf("recent key k%d served as %v, want a hit", i, out)
				}
			}
			// The key just older than those was evicted: touching it again
			// is a fresh build.
			before := builds.Load()
			if out := acquire(keys - entries - 1); out != Solved || builds.Load() != before+1 {
				t.Fatalf("evicted key came back as %v with %d builds (was %d); want a rebuild", out, builds.Load(), before)
			}
		})
	}
}

func TestTTLExpiryRebuilds(t *testing.T) {
	tel := telemetry.New()
	c := NewCache(Config{TTL: 10 * time.Millisecond, Telemetry: tel})
	build, solve, builds, _ := counters(t)
	l, _, err := c.Acquire("k", 5, build, solve)
	if err != nil {
		t.Fatal(err)
	}
	l.Release()
	time.Sleep(25 * time.Millisecond)
	l, out, err := c.Acquire("k", 5, build, solve)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	if out != Solved || builds.Load() != 2 {
		t.Fatalf("expired entry served as %v with %d builds, want a rebuild", out, builds.Load())
	}
	ttl := telemetry.Labeled(telemetry.MetricServingEvictions, "reason", "ttl")
	if n := seriesValue(tel, ttl); n != 1 {
		t.Fatalf("%s = %d, want 1", ttl, n)
	}
}

func TestAdmissionShed(t *testing.T) {
	tel := telemetry.New()
	c := NewCache(Config{MaxInflight: 1, ShedWait: 5 * time.Millisecond, Telemetry: tel})
	build, _, _, _ := counters(t)
	inSolve := make(chan struct{})
	finish := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		l, _, err := c.Acquire("a", 5, build, func(_ *udao.Optimizer, _ int) error {
			close(inSolve)
			<-finish
			return nil
		})
		if err != nil {
			t.Error(err)
			return
		}
		l.Release()
	}()
	<-inSolve
	// A DIFFERENT key cannot coalesce; with the only slot taken it must shed.
	_, _, err := c.Acquire("b", 5, build, func(_ *udao.Optimizer, _ int) error { return nil })
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("got %v, want *ShedError", err)
	}
	if shed.Reason != ShedAdmission || !errors.Is(err, ErrShed) || shed.RetryAfter <= 0 {
		t.Fatalf("shed %+v, want admission reason with positive RetryAfter", shed)
	}
	close(finish)
	<-done
	if n := seriesValue(tel, telemetry.MetricShed); n != 1 {
		t.Fatalf("%s = %d, want 1", telemetry.MetricShed, n)
	}
}

func TestCoalesceTimeoutSheds(t *testing.T) {
	c := NewCache(Config{CoalesceMax: 10 * time.Millisecond})
	build, _, _, _ := counters(t)
	inSolve := make(chan struct{})
	finish := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		l, _, err := c.Acquire("a", 5, build, func(_ *udao.Optimizer, _ int) error {
			close(inSolve)
			<-finish
			return nil
		})
		if err != nil {
			t.Error(err)
			return
		}
		l.Release()
	}()
	<-inSolve
	_, _, err := c.Acquire("a", 5, build, func(_ *udao.Optimizer, _ int) error { return nil })
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedCoalesce {
		t.Fatalf("got %v, want coalesce-timeout shed", err)
	}
	close(finish)
	<-done
}

func TestBuildErrorsAreNotCached(t *testing.T) {
	c := NewCache(Config{})
	boom := errors.New("boom")
	calls := 0
	failing := func() (*udao.Optimizer, error) { calls++; return nil, boom }
	noop := func(_ *udao.Optimizer, _ int) error { return nil }
	if _, _, err := c.Acquire("k", 5, failing, noop); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if _, _, err := c.Acquire("k", 5, failing, noop); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom again", err)
	}
	if calls != 2 {
		t.Fatalf("build ran %d times, want 2 (failures must not stick)", calls)
	}
}

func TestLeaseIsExclusive(t *testing.T) {
	c := NewCache(Config{})
	build, solve, _, _ := counters(t)
	l1, _, err := c.Acquire("k", 5, build, solve)
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan time.Time, 1)
	go func() {
		l2, _, err := c.Acquire("k", 5, build, solve)
		if err != nil {
			t.Error(err)
			return
		}
		acquired <- time.Now()
		l2.Release()
	}()
	hold := 40 * time.Millisecond
	released := time.Now().Add(hold)
	time.Sleep(hold)
	l1.Release()
	at := <-acquired
	if at.Before(released.Add(-10 * time.Millisecond)) {
		t.Fatalf("second lease acquired %v before the first released", released.Sub(at))
	}
}
