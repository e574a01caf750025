package problem

import "time"

// Clock is the shared wall-clock budget used by every optimizer loop: it
// starts when created and reports expiry against an optional budget. Zero
// budget means unlimited. Lifting this out of the individual methods keeps
// the TimeBudget semantics identical everywhere (checked between units of
// work; the unit in flight is never interrupted).
type Clock struct {
	start  time.Time
	budget time.Duration
}

// StartClock starts a clock with the given budget (zero = unlimited).
func StartClock(budget time.Duration) Clock {
	return Clock{start: time.Now(), budget: budget}
}

// Elapsed returns the wall-clock time since the clock started.
func (c Clock) Elapsed() time.Duration { return time.Since(c.start) }

// Expired reports whether the budget (if any) is exhausted.
func (c Clock) Expired() bool {
	return c.budget > 0 && time.Since(c.start) > c.budget
}
