// Package metrics is a lock-cheap per-node metrics registry for the
// simulated cluster: counters, gauges and histograms with typed handles.
//
// Registration (looking a name up in the registry) takes a mutex once;
// the returned handle is a pointer to atomics, so the hot paths — block
// I/O, message sends, merge-kernel chunks — update metrics with a single
// atomic add and no locks.  Snapshot flattens the whole registry into a
// sorted name→value map for reports and the -metrics-out exporter.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value-wins float metric (queue depths, fan-ins).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of power-of-two histogram buckets: bucket b
// collects observations in (2^(b-histZero-1), 2^(b-histZero)], covering
// 2^-32 .. 2^31 — wide enough for virtual-second latencies and queue
// depths alike.
const (
	histBuckets = 64
	histZero    = 32
)

// Histogram accumulates observations into power-of-two buckets, with
// exact count, sum, min and max.  All updates are atomic; concurrent
// Observe calls never lock.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
	first   atomic.Bool
	buckets [histBuckets]atomic.Int64
}

func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	b := math.Ilogb(v) + histZero + 1
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketUpper returns the inclusive upper bound of bucket b.
func bucketUpper(b int) float64 {
	if b == 0 {
		return 0
	}
	return math.Ldexp(1, b-histZero)
}

// Observe records one sample.  NaN is recorded as 0: letting it
// through would make Sum NaN forever (addFloat propagates it on every
// later observation) and wedge min/max when it seeds them (casFloat's
// comparisons against NaN are always false), leaking NaN into every
// Snapshot.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		v = 0
	}
	h.count.Add(1)
	h.buckets[bucketOf(v)].Add(1)
	addFloat(&h.sumBits, v)
	if h.first.CompareAndSwap(false, true) {
		// First observer seeds min/max; racing observers fix them up
		// with the CAS loops below, so no sample is ever lost.
		h.minBits.Store(math.Float64bits(v))
		h.maxBits.Store(math.Float64bits(v))
	}
	casFloat(&h.minBits, v, func(cur, v float64) bool { return v < cur })
	casFloat(&h.maxBits, v, func(cur, v float64) bool { return v > cur })
}

func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func casFloat(bits *atomic.Uint64, v float64, better func(cur, v float64) bool) {
	for {
		old := bits.Load()
		if !better(math.Float64frombits(old), v) {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Min returns the smallest observation (0 before any Observe).
func (h *Histogram) Min() float64 {
	if !h.first.Load() {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation (0 before any Observe).
func (h *Histogram) Max() float64 {
	if !h.first.Load() {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) from
// the power-of-two buckets — exact to within one bucket width.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := 0; b < histBuckets; b++ {
		seen += h.buckets[b].Load()
		if seen >= rank {
			up := bucketUpper(b)
			if max := h.Max(); up > max {
				up = max
			}
			return up
		}
	}
	return h.Max()
}

// BucketCount is one non-empty histogram bucket: the inclusive upper
// bound of its value range and the number of observations in it.
type BucketCount struct {
	UpperBound float64
	Count      int64
}

// BucketCounts returns the histogram's non-empty buckets in ascending
// bound order — the raw (non-cumulative) counts the Prometheus
// exposition accumulates into `_bucket{le=...}` series.
func (h *Histogram) BucketCounts() []BucketCount {
	var out []BucketCount
	for b := 0; b < histBuckets; b++ {
		if n := h.buckets[b].Load(); n > 0 {
			out = append(out, BucketCount{UpperBound: bucketUpper(b), Count: n})
		}
	}
	return out
}

// Registry holds a node's named metrics.  The zero value is not usable;
// call NewRegistry.  Handle lookup locks; handle use does not.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.  The handle stays valid for the registry's lifetime.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(Histogram)
		r.hists[name] = h
	}
	return h
}

// Snapshot flattens the registry into a name→value map: counters and
// gauges appear under their own names; a histogram h appears as
// h.count, h.sum, h.min, h.max, h.p50 and h.p99.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+6*len(r.hists))
	for name, c := range r.counters {
		out[name] = float64(c.Value())
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.hists {
		out[name+".count"] = float64(h.Count())
		out[name+".sum"] = h.Sum()
		out[name+".min"] = h.Min()
		out[name+".max"] = h.Max()
		out[name+".p50"] = h.Quantile(0.50)
		out[name+".p99"] = h.Quantile(0.99)
	}
	return out
}

// Reset zeroes every registered metric in place; existing handles stay
// valid (the experiment harness resets between repetitions).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.count.Store(0)
		h.sumBits.Store(0)
		h.minBits.Store(0)
		h.maxBits.Store(0)
		h.first.Store(false)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
}
