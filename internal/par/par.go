// Package par is the solver layer's one parallel loop. PF-AP probes its l^k
// grid cells at once (§IV-C), the exact solver solves a batch of CO problems
// at once, and an evaluator evaluates a batch of points at once: each is an
// index loop whose iterations write only their own result slot, so each runs
// on For.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) once for every i in [0, n) and returns when every call has
// returned. The calls run on the calling goroutine plus up to
// min(n, GOMAXPROCS)−1 helper goroutines, GOMAXPROCS read on each call; each
// goroutine takes the next unclaimed index until none is left. Which
// goroutine runs an index, and in what order the calls finish, depends on
// scheduling, so fn must not depend on it: results that are written to slot
// i alone are the same however the calls are spread. Nested calls are safe;
// each starts its own helpers.
func For(n int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for h := 1; h < min(n, runtime.GOMAXPROCS(0)); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
