package telemetry

import (
	"expvar"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can move in both directions, safe for concurrent
// use (stored as raw bits, updated by CAS).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DefBuckets are the default histogram bucket upper bounds, tuned for
// latencies in seconds from sub-millisecond model passes to multi-second
// frontier computations.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Histogram is a fixed-bucket histogram with atomic counters: Observe is
// lock-free and allocation-free, quantiles are estimated by linear
// interpolation inside the owning bucket.
type Histogram struct {
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    Gauge // float64 accumulated by CAS
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one measurement.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts,
// interpolating linearly inside the bucket that holds the rank. Values in
// the overflow (+Inf) bucket are reported as the largest finite bound. With
// no observations it returns NaN.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i >= len(h.bounds) { // overflow bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is the JSON/expvar view of a histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Registry holds named instruments. Lookups are get-or-create and safe for
// concurrent use; instrument names may carry a Prometheus label block (e.g.
// `udao_http_requests_total{route="/optimize",code="200"}`) — series of one
// family share the base name before the '{'.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	help     map[string]string // keyed by base name; first non-empty wins
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
	}
}

// baseName strips a label block from a series name.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (r *Registry) setHelp(name, help string) {
	if help == "" {
		return
	}
	base := baseName(name)
	if _, ok := r.help[base]; !ok {
		r.help[base] = help
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string, help ...string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	if len(help) > 0 {
		r.setHelp(name, help[0])
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, help ...string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	if len(help) > 0 {
		r.setHelp(name, help[0])
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with the
// given bucket upper bounds (nil = DefBuckets). Buckets are fixed at
// creation; later calls return the existing histogram regardless of buckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = newHistogram(buckets)
		r.hists[name] = h
	}
	r.setHelp(name, help)
	return h
}

// Snapshot copies the current value of every instrument.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = g.Value()
	}
	for n, h := range r.hists {
		s.Histograms[n] = HistogramSnapshot{
			Count: h.Count(), Sum: h.Sum(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		}
	}
	return s
}

// WriteProm renders the registry in the Prometheus text exposition format
// (sorted by name, HELP/TYPE emitted once per family).
func (r *Registry) WriteProm(w *strings.Builder) {
	r.mu.RLock()
	defer r.mu.RUnlock()

	seenMeta := map[string]bool{}
	meta := func(base, typ string) {
		if seenMeta[base] {
			return
		}
		seenMeta[base] = true
		if help := r.help[base]; help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", base, help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", base, typ)
	}

	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		meta(baseName(n), "counter")
		fmt.Fprintf(w, "%s %d\n", n, r.counters[n].Value())
	}

	names = names[:0]
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		meta(baseName(n), "gauge")
		fmt.Fprintf(w, "%s %g\n", n, r.gauges[n].Value())
	}

	names = names[:0]
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := r.hists[n]
		// A labeled series keeps its label block after the _bucket, _sum and
		// _count suffixes; buckets add le to that block.
		base := baseName(n)
		block := n[len(base):]
		le := "{"
		if block != "" {
			le = block[:len(block)-1] + ","
		}
		meta(base, "histogram")
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "%s_bucket%sle=%q} %d\n", base, le, fmtBound(b), cum)
		}
		fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n", base, le, h.Count())
		fmt.Fprintf(w, "%s_sum%s %g\n", base, block, h.Sum())
		fmt.Fprintf(w, "%s_count%s %d\n", base, block, h.Count())
	}
}

func fmtBound(b float64) string { return fmt.Sprintf("%g", b) }

// Handler serves the registry as a Prometheus /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		r.WriteProm(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}

// expvarPublished guards against double expvar registration (expvar.Publish
// panics on duplicate names, and tests build many registries).
var expvarMu sync.Mutex

// PublishExpvar publishes the registry's snapshot under the given expvar
// name. expvar has no unpublish and panics on duplicates, so an
// already-taken name makes this a safe no-op (expvar is process-global;
// publishing is meant for the single server registry, not per-test ones).
func (r *Registry) PublishExpvar(name string) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() interface{} { return r.Snapshot() }))
}
