// Package serving is the high-throughput request path between the HTTP
// service and the optimizer stack. The paper frames the optimizer as an
// inline cloud service (§I: "recommend a configuration within a few
// seconds"); at production request rates that requires more than a fast
// solve — it requires never solving the same thing twice concurrently and
// refusing work the solver pool cannot absorb. The package provides, per
// (workload, objectives, stages) key:
//
//   - a bounded optimizer/frontier cache: one index and one LRU list under one
//     lock, held for a map access and never across a solve, least-recently-
//     used eviction at the entry budget, and a TTL that bounds how stale a
//     cached frontier (and the models behind it) may get before the entry is
//     rebuilt;
//   - singleflight coalescing: N concurrent identical requests trigger ONE
//     build+solve; the waiters block on the flight and then apply their own
//     preference weights to the shared frontier;
//   - incremental serving: a request asking for more probes than the cached
//     run has invested resumes core.Run.Expand for the difference instead of
//     re-solving; a request asking for fewer answers straight from the cached
//     frontier (§IV-A's anytime property, applied across requests);
//   - admission control: a bounded in-flight-solve semaphore with a wait
//     deadline. A request that cannot get a solve slot (or whose flight
//     leader cannot) is shed with a typed ShedError the HTTP layer maps to
//     429 + Retry-After, instead of queueing without bound.
//
// udao.Optimizer is not safe for concurrent use, so Acquire hands back a
// Lease: exclusive access to the entry's optimizer until Release. Frontier
// reads, Recommend calls and incremental Expands all run under the lease;
// the serving layer never copies frontier state.
package serving

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	udao "repro"
	"repro/internal/telemetry"
)

// Defaults used for zero Config fields.
const (
	DefaultEntries     = 256
	DefaultTTL         = 15 * time.Minute
	DefaultShedWait    = 500 * time.Millisecond
	DefaultCoalesceMax = 3 * time.Second
)

// Config tunes the serving cache. The zero value means "use the default"
// for every field; negative values disable the corresponding bound where
// that is meaningful (TTL, MaxInflight).
type Config struct {
	// Entries bounds the cached optimizers (default 256); inserting a key
	// into a full cache evicts the least-recently-used entry.
	Entries int
	// TTL bounds the age of a cached entry from its creation; an expired
	// entry is rebuilt on next access (models re-fetched, frontier
	// re-solved), which is what keeps served answers from drifting
	// arbitrarily far from retrained models. Zero means DefaultTTL; negative
	// disables expiry.
	TTL time.Duration
	// MaxInflight bounds concurrent build+solve work (the admission
	// semaphore). Zero means GOMAXPROCS; negative disables admission control.
	MaxInflight int
	// ShedWait is how long a would-be solver waits for an admission slot
	// before the request is shed (default 500ms).
	ShedWait time.Duration
	// CoalesceMax is how long a coalesced waiter follows another request's
	// in-flight solve before giving up and shedding (default 3s — the
	// service's default SLO; waiting longer than the SLO cannot produce a
	// useful answer).
	CoalesceMax time.Duration
	// Telemetry, when non-nil, feeds the serving counters and gauges
	// (udao_serving_*, udao_shed_total).
	Telemetry *telemetry.Telemetry
}

func (c *Config) defaults() {
	if c.Entries <= 0 {
		c.Entries = DefaultEntries
	}
	if c.TTL == 0 {
		c.TTL = DefaultTTL
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.ShedWait <= 0 {
		c.ShedWait = DefaultShedWait
	}
	if c.CoalesceMax <= 0 {
		c.CoalesceMax = DefaultCoalesceMax
	}
}

// Shed reasons.
const (
	// ShedAdmission: no solve slot became free within ShedWait.
	ShedAdmission = "admission"
	// ShedCoalesce: the request coalesced onto an in-flight solve that did
	// not finish within CoalesceMax.
	ShedCoalesce = "coalesce"
)

// ErrShed is the sentinel every ShedError unwraps to.
var ErrShed = errors.New("serving: request shed")

// ShedError reports that admission control refused the request. The HTTP
// layer maps it to 429 with a Retry-After header.
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serving: shed (%s), retry after %s", e.Reason, e.RetryAfter)
}

func (e *ShedError) Unwrap() error { return ErrShed }

// Outcome says how Acquire satisfied the request.
type Outcome int

const (
	// Hit: answered from a cached frontier with enough probes invested.
	Hit Outcome = iota
	// Solved: this request built the optimizer and ran the first solve.
	Solved
	// Expanded: a cached run existed but was too coarse; this request
	// resumed Expand for the missing probes.
	Expanded
	// Coalesced: another request's in-flight solve produced the frontier;
	// this request only waited.
	Coalesced
)

// String returns the wire name of the outcome (the response's "served"
// field).
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Solved:
		return "solve"
	case Expanded:
		return "expand"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// flight is one in-flight build+solve: waiters with target probes <= target
// block on done and share the outcome.
type flight struct {
	target int
	done   chan struct{}
	err    error // write-once before close(done)
}

// entry is one cached optimizer. prev and next link it into the cache's LRU
// list under Cache.mu. st guards the fields below it and is only ever held
// briefly; optMu serializes optimizer USE (solve, expand, recommend,
// frontier reads) and is what a Lease holds. The split keeps state
// inspection (coalescing decisions, publishing) off the solve path's
// critical section.
type entry struct {
	key        string
	expires    time.Time // zero = no expiry
	prev, next *entry

	st       sync.Mutex
	opt      *udao.Optimizer
	probes   int // probes invested into opt's run so far
	inflight *flight

	optMu sync.Mutex
}

// Stats is a point-in-time snapshot of the cache's request and hit counts,
// for callers without a telemetry registry (servbench's traced host). Every
// other cache event is counted only in the udao_serving_* and udao_shed_total
// series.
type Stats struct {
	Requests uint64
	Hits     uint64
}

// Cache is the serving cache. All methods are safe for concurrent use.
type Cache struct {
	cfg Config
	sem chan struct{}

	// mu guards the index and the LRU list threaded through its entries:
	// head is the most-, tail the least-recently-used entry.
	mu         sync.Mutex
	entries    map[string]*entry
	head, tail *entry

	requests, hits atomic.Uint64

	telRequests, telHits, telMisses  *telemetry.Counter
	telExpands, telCoalesced         *telemetry.Counter
	telEvict, telEvictLRU            *telemetry.Counter
	telEvictTTL, telShed             *telemetry.Counter
	telShedAdmission, telShedCoalesc *telemetry.Counter
	telWarmup                        *telemetry.Counter
	telEntries, telInflight          *telemetry.Gauge
}

// NewCache builds a cache from cfg (zero fields defaulted).
func NewCache(cfg Config) *Cache {
	cfg.defaults()
	c := &Cache{cfg: cfg, entries: make(map[string]*entry)}
	if cfg.MaxInflight > 0 {
		c.sem = make(chan struct{}, cfg.MaxInflight)
	}
	if tel := cfg.Telemetry; tel != nil {
		m := tel.Metrics
		c.telRequests = m.Counter(telemetry.MetricServingRequests)
		c.telHits = m.Counter(telemetry.MetricServingHits)
		c.telMisses = m.Counter(telemetry.MetricServingMisses)
		c.telExpands = m.Counter(telemetry.MetricServingExpands)
		c.telCoalesced = m.Counter(telemetry.MetricServingCoalesced)
		c.telEvict = m.Counter(telemetry.MetricServingEvictions)
		c.telEvictLRU = m.Counter(telemetry.Labeled(telemetry.MetricServingEvictions, "reason", "lru"))
		c.telEvictTTL = m.Counter(telemetry.Labeled(telemetry.MetricServingEvictions, "reason", "ttl"))
		c.telShed = m.Counter(telemetry.MetricShed)
		c.telShedAdmission = m.Counter(telemetry.Labeled(telemetry.MetricShed, "reason", ShedAdmission))
		c.telShedCoalesc = m.Counter(telemetry.Labeled(telemetry.MetricShed, "reason", ShedCoalesce))
		c.telWarmup = m.Counter(telemetry.MetricServingWarmup)
		c.telEntries = m.Gauge(telemetry.MetricServingEntries)
		c.telInflight = m.Gauge(telemetry.MetricServingInflight)
	}
	return c
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{Requests: c.requests.Load(), Hits: c.hits.Load()}
}

// Lease is exclusive access to a cached optimizer, from Acquire until
// Release. The optimizer must not be used after Release.
type Lease struct {
	e *entry
}

// Optimizer returns the leased optimizer.
func (l *Lease) Optimizer() *udao.Optimizer { return l.e.opt }

// Release ends the lease.
func (l *Lease) Release() { l.e.optMu.Unlock() }

// Builder constructs the optimizer for a key on a cache miss. It runs
// without any cache lock held (it may train models) but inside the
// admission gate.
type Builder func() (*udao.Optimizer, error)

// Solver invests delta additional probes into opt (the first solve passes
// the full target). It runs under the entry's optimizer lock and inside the
// admission gate.
type Solver func(opt *udao.Optimizer, delta int) error

// Acquire returns a lease on the optimizer for key with at least `probes`
// solver probes invested, building and solving (or resuming Expand) through
// the supplied callbacks as needed. Concurrent Acquires for one key
// coalesce: one becomes the solver, the rest wait for its flight and share
// the result. The error is *ShedError when admission control refused the
// request.
func (c *Cache) Acquire(key string, probes int, build Builder, solve Solver) (*Lease, Outcome, error) {
	c.requests.Add(1)
	c.telRequests.Add(1)
	deadline := time.Now().Add(c.cfg.ShedWait)
	e := c.lookup(key, time.Now())
	outcome := Hit
	coalesced := false
	for {
		e.st.Lock()
		if e.opt != nil && e.probes >= probes {
			e.st.Unlock()
			e.optMu.Lock()
			// The ready check raced an Expand or a rebuild: state can only
			// grow, so holding optMu the condition still stands.
			if coalesced {
				outcome = Coalesced
				c.telCoalesced.Add(1)
			}
			c.count(outcome)
			return &Lease{e: e}, outcome, nil
		}
		if f := e.inflight; f != nil {
			// Someone is already solving this key. Follow their flight — even
			// when their target is lower than ours: the optimizer is exclusive,
			// so the choice is waiting here or waiting on optMu; waiting here
			// respects the shed deadline. If their target falls short we loop
			// around and expand the remainder ourselves.
			e.st.Unlock()
			if !c.await(f) {
				return nil, 0, c.shed(ShedCoalesce)
			}
			if f.err != nil {
				// A shed leader sheds its whole flight; count every request so
				// the shed rate reflects refused requests, not refused solves.
				var se *ShedError
				if errors.As(f.err, &se) {
					return nil, 0, c.shed(se.Reason)
				}
				return nil, 0, f.err
			}
			if f.target >= probes {
				coalesced = true
			}
			continue
		}
		// No usable frontier and nobody solving: become the solver.
		f := &flight{target: probes, done: make(chan struct{})}
		e.inflight = f
		building := e.opt == nil
		e.st.Unlock()
		if building {
			outcome = Solved
		} else {
			outcome = Expanded
		}
		lease, err := c.runFlight(e, f, probes, building, build, solve, deadline)
		if err != nil {
			return nil, 0, err
		}
		if coalesced {
			// We waited on an earlier flight first, then finished the job
			// ourselves; the solve outcome describes the request better.
			coalesced = false
		}
		c.count(outcome)
		return lease, outcome, nil
	}
}

// runFlight executes one build+solve under the admission gate and publishes
// the result to the entry and the flight's waiters.
func (c *Cache) runFlight(e *entry, f *flight, probes int, building bool, build Builder, solve Solver, deadline time.Time) (*Lease, error) {
	finish := func(err error) {
		e.st.Lock()
		e.inflight = nil
		e.st.Unlock()
		f.err = err
		close(f.done)
	}
	if !c.admit(deadline) {
		err := c.shed(ShedAdmission)
		finish(err)
		return nil, err
	}
	c.telInflight.Add(1)
	release := func() {
		c.telInflight.Add(-1)
		if c.sem != nil {
			<-c.sem
		}
	}
	opt := e.opt
	invested := e.probes
	if building {
		var err error
		if opt, err = build(); err != nil {
			release()
			finish(err)
			return nil, err
		}
		invested = 0
	}
	// Take the optimizer before touching it: a released lease-holder may
	// still be finishing a Recommend on the previous frontier.
	e.optMu.Lock()
	if err := solve(opt, probes-invested); err != nil {
		e.optMu.Unlock()
		release()
		finish(err)
		return nil, err
	}
	e.st.Lock()
	e.opt = opt
	e.probes = probes
	e.inflight = nil
	e.st.Unlock()
	f.err = nil
	close(f.done)
	release()
	// Still holding optMu: the solver's lease begins where its solve ended.
	return &Lease{e: e}, nil
}

// Prime warms the entry for key outside any request flow: it builds and
// solves to at least `probes` probes, then releases the optimizer
// immediately so the first real request for the key is a cache hit. A key
// that is already cached with enough probes invested — or that another
// goroutine is currently solving — is left alone (primed=false, nil error);
// warm-up never competes with live traffic for an entry it cannot improve.
// Unlike Acquire, Prime does not count toward the request/hit/miss rates
// (it is not a request); successful warm-ups increment
// udao_serving_warmup_total. The admission gate still
// applies: priming N keys concurrently cannot exceed MaxInflight solves.
func (c *Cache) Prime(key string, probes int, build Builder, solve Solver) (bool, error) {
	now := time.Now()
	e := c.lookup(key, now)
	e.st.Lock()
	if (e.opt != nil && e.probes >= probes) || e.inflight != nil {
		e.st.Unlock()
		return false, nil
	}
	f := &flight{target: probes, done: make(chan struct{})}
	e.inflight = f
	building := e.opt == nil
	e.st.Unlock()
	lease, err := c.runFlight(e, f, probes, building, build, solve, now.Add(c.cfg.ShedWait))
	if err != nil {
		return false, err
	}
	lease.Release()
	c.telWarmup.Add(1)
	return true, nil
}

// await blocks on a flight until it completes or the coalesce budget runs
// out; it reports false on timeout.
func (c *Cache) await(f *flight) bool {
	t := time.NewTimer(c.cfg.CoalesceMax)
	defer t.Stop()
	select {
	case <-f.done:
		return true
	case <-t.C:
		return false
	}
}

// admit takes an admission slot, waiting until the deadline.
func (c *Cache) admit(deadline time.Time) bool {
	if c.sem == nil {
		return true
	}
	select {
	case c.sem <- struct{}{}:
		return true
	default:
	}
	wait := time.Until(deadline)
	if wait <= 0 {
		return false
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case c.sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	}
}

func (c *Cache) shed(reason string) error {
	c.telShed.Add(1)
	switch reason {
	case ShedAdmission:
		c.telShedAdmission.Add(1)
	default:
		c.telShedCoalesc.Add(1)
	}
	return &ShedError{Reason: reason, RetryAfter: c.cfg.ShedWait}
}

func (c *Cache) count(o Outcome) {
	switch o {
	case Hit:
		c.hits.Add(1)
		c.telHits.Add(1)
	case Solved:
		c.telMisses.Add(1)
	case Expanded:
		c.telExpands.Add(1)
	}
}

// lookup returns the live entry for key, creating (and inserting) a fresh
// one when the key is absent or its entry has expired. LRU order is updated;
// inserting into a full cache evicts the least-recently-used entries.
func (c *Cache) lookup(key string, now time.Time) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.expires.IsZero() || now.Before(e.expires) {
			c.moveToFront(e)
			return e
		}
		c.remove(e)
		c.telEvict.Add(1)
		c.telEvictTTL.Add(1)
	}
	e := &entry{key: key}
	if c.cfg.TTL > 0 {
		e.expires = now.Add(c.cfg.TTL)
	}
	for len(c.entries) >= c.cfg.Entries {
		c.remove(c.tail)
		c.telEvict.Add(1)
		c.telEvictLRU.Add(1)
	}
	c.entries[key] = e
	c.pushFront(e)
	c.telEntries.Set(float64(len(c.entries)))
	return e
}

func (c *Cache) pushFront(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *Cache) remove(e *entry) {
	c.unlink(e)
	delete(c.entries, e.key)
}
