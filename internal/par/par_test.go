package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// counts runs For over n indexes and returns how often each index ran.
func counts(n int) []int32 {
	c := make([]int32, n)
	For(n, func(i int) { atomic.AddInt32(&c[i], 1) })
	return c
}

// TestForRunsEveryIndexOnce checks that every index runs exactly once, for
// empty, single, small and large loops, at GOMAXPROCS 1, 2 and 8.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 2, 7, 1000} {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for i, c := range counts(n) {
					if c != 1 {
						t.Fatalf("index %d ran %d times", i, c)
					}
				}
			})
		}
	}
}

// TestForNested runs a For inside every iteration of another: each inner
// index of each outer index runs exactly once.
func TestForNested(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const outer, inner = 9, 13
	c := make([][]int32, outer)
	For(outer, func(i int) {
		c[i] = make([]int32, inner)
		For(inner, func(j int) { atomic.AddInt32(&c[i][j], 1) })
	})
	for i := range c {
		for j, v := range c[i] {
			if v != 1 {
				t.Fatalf("inner index (%d, %d) ran %d times", i, j, v)
			}
		}
	}
}
