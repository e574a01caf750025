package serving

import (
	"fmt"
	"sync"
	"testing"

	udao "repro"
)

// The serving benchmarks isolate the cache machinery: the build callback
// returns a prebuilt optimizer and the solve callback is a no-op, so ns/op is
// pure serving overhead (index lookup, LRU bookkeeping, flight dispatch), not
// solver time.

// BenchmarkServingCacheHit is the steady-state fast path: Acquire+Release on
// a ready entry.
func BenchmarkServingCacheHit(b *testing.B) {
	c := NewCache(Config{})
	opt := testOptimizer(b)
	build := func() (*udao.Optimizer, error) { return opt, nil }
	solve := func(_ *udao.Optimizer, _ int) error { return nil }
	l, _, err := c.Acquire("k", 10, build, solve)
	if err != nil {
		b.Fatal(err)
	}
	l.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, _, err := c.Acquire("k", 10, build, solve)
		if err != nil {
			b.Fatal(err)
		}
		l.Release()
	}
}

// BenchmarkServingCacheInsert is the churn path: every iteration inserts a
// fresh key into a small cache, paying index insert + LRU eviction + flight
// setup/teardown.
func BenchmarkServingCacheInsert(b *testing.B) {
	c := NewCache(Config{Entries: 64})
	opt := testOptimizer(b)
	build := func() (*udao.Optimizer, error) { return opt, nil }
	solve := func(_ *udao.Optimizer, _ int) error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, _, err := c.Acquire(fmt.Sprintf("k%d", i), 10, build, solve)
		if err != nil {
			b.Fatal(err)
		}
		l.Release()
	}
}

// BenchmarkCoalescedDispatch measures one cold dispatch shared by 8
// concurrent requests: flight registration, waiter parking and wakeup, and
// the per-waiter lease handoff.
func BenchmarkCoalescedDispatch(b *testing.B) {
	opt := testOptimizer(b)
	build := func() (*udao.Optimizer, error) { return opt, nil }
	solve := func(_ *udao.Optimizer, _ int) error { return nil }
	c := NewCache(Config{Entries: 64, MaxInflight: -1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("k%d", i)
		var wg sync.WaitGroup
		wg.Add(8)
		for g := 0; g < 8; g++ {
			go func() {
				defer wg.Done()
				l, _, err := c.Acquire(key, 10, build, solve)
				if err != nil {
					b.Error(err)
					return
				}
				l.Release()
			}()
		}
		wg.Wait()
	}
}
