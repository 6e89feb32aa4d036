// Package obs is the repository's zero-dependency observability core: a
// small metrics library (counters, gauges, histograms with streaming
// quantiles, labeled families) plus a Prometheus-text-format encoder and an
// HTTP handler, so every layer of the sweep service — coordinator, workers,
// dispatch queue, result store, the simulator itself — can expose the
// numbers a fleet operator pages on without pulling in a client library.
//
// Instruments are nil-safe: observing on a nil *Counter, *Gauge or
// *Histogram is a no-op, so packages can carry optional metrics fields that
// cost nothing when unwired.
//
//	reg := obs.NewRegistry()
//	hits := reg.Counter("store_hits_total", "Result-store cache hits.")
//	lat := reg.Histogram("exec_seconds", "Point execution latency.", obs.LatencyBuckets)
//	...
//	mux.Handle("GET /metrics", obs.Handler(reg))
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in Prometheus text format.
// All methods are safe for concurrent use. Registering an existing name with
// the same type and label set returns the existing family (idempotent);
// conflicting re-registration panics, as it means two subsystems disagree
// about what a metric is.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// metric kinds, matching the TYPE line of the text format.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric: its metadata plus every labeled series.
type family struct {
	name   string
	help   string
	kind   string
	labels []string  // label names; empty for an unlabeled family
	bounds []float64 // histogram bucket upper bounds

	mu     sync.Mutex
	series map[string]any // label-values key -> *Counter | *Gauge | *Histogram
	order  []string       // registration order of series keys

	// fn, when non-nil, makes this an unlabeled gauge evaluated at scrape
	// time (for values that live elsewhere, like a queue length).
	fn func() float64
}

// register returns the family, creating it on first use and validating that
// repeated registrations agree.
func (r *Registry) register(name, help, kind string, labels []string, bounds []float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: labels,
		bounds: bounds,
		series: make(map[string]any),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seriesKey encodes label values into a map key (and the encoder's sort key).
func seriesKey(values []string) string { return strings.Join(values, "\xff") }

// get returns the series for the label values, creating it with make on
// first use.
func (f *family) get(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label value(s), got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m := make()
	f.series[key] = m
	f.order = append(f.order, key)
	return m
}

// --- instruments ---

// Counter is a monotonically increasing value. The zero value is ready to
// use; a nil *Counter ignores all updates.
type Counter struct {
	bits atomic.Uint64 // float64 bits
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters only go
// up).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down. The zero value is ready to use;
// a nil *Gauge ignores all updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the value by v (negative to decrease).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// addFloat atomically adds a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Histogram accumulates observations into fixed buckets and answers
// streaming quantile queries from them. Observations are lock-free; the
// quantile estimate is exact to within the width of the bucket holding the
// quantile (see Quantile). A nil *Histogram ignores all observations.
type Histogram struct {
	// bounds are the inclusive upper bounds of the finite buckets, strictly
	// increasing; an implicit +Inf bucket catches the rest.
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not strictly increasing at %v", bounds[i]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observations by
// linear interpolation inside the bucket holding it. The estimate is never
// below the bucket's lower bound nor above its upper bound, so its relative
// error is bounded by the bucket width; with ExpBuckets(_, factor, _) that
// is a factor of at most `factor`. The two open-ended buckets have no width
// to interpolate across and return their finite bound: a quantile landing in
// the first bucket returns the lowest bound, one landing in the +Inf bucket
// the highest. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			cum += n
			continue
		}
		if cum+n >= rank {
			switch i {
			case 0:
				return h.bounds[0]
			case len(h.bounds):
				return h.bounds[len(h.bounds)-1]
			}
			lower := h.bounds[i-1]
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lower + (h.bounds[i]-lower)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// snapshot returns the cumulative per-bucket counts (Prometheus `le`
// semantics, including +Inf), the total count and the sum.
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.counts))
	var c uint64
	for i := range h.counts {
		c += h.counts[i].Load()
		cum[i] = c
	}
	return cum, h.count.Load(), h.Sum()
}

// ExpBuckets returns n exponentially growing bucket bounds starting at start
// (> 0) and multiplying by factor (> 1): the standard shape for latencies
// spanning orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets spans 100µs to ~100s, the range of wall-clock latencies in
// the sweep service (store lookups through full simulation points).
var LatencyBuckets = ExpBuckets(100e-6, 2, 21)

// CycleBuckets spans 64 cycles to ~4G cycles, the range of simulated
// per-task latencies and execution times.
var CycleBuckets = ExpBuckets(64, 2, 27)

// --- registration ---

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return f.get(nil, func() any { return new(Counter) }).(*Counter)
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return f.get(nil, func() any { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram registers (or returns) an unlabeled histogram with the given
// bucket upper bounds (strictly increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, kindHistogram, nil, buckets)
	return f.get(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// CounterVec registers (or returns) a counter family with the given label
// names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, labels, nil)}
}

// GaugeVec registers (or returns) a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, labels, nil)}
}

// HistogramVec registers (or returns) a histogram family with the given
// label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, kindHistogram, labels, buckets)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the label values (one per label name, in
// registration order), creating it on first use. Nil-safe.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(values, func() any { return new(Counter) }).(*Counter)
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the label values. Nil-safe.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.get(values, func() any { return new(Gauge) }).(*Gauge)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the label values. Nil-safe.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	f := v.f
	return f.get(values, func() any { return newHistogram(f.bounds) }).(*Histogram)
}
