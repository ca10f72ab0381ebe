// Package telemetry is the repo's single instrumentation core: counters,
// gauges and fixed-bucket histograms with a Prometheus text exposition.
// Every layer — the engine (which also reports each scheduler's
// decisions), the experiment runner and the euad service — reports
// through this package instead of bespoke ad-hoc fields, so one audited
// surface covers them all (see DESIGN.md §10 for names and conventions).
//
// The zero-cost default: every metric method is nil-receiver-safe, and a
// nil *Registry returns nil metrics, so a component without a registry
// pays a nil check per would-be update. The daemon and the coordinator
// resolve their metric pointers once, at New. The engine keeps a run's
// counts and histogram buckets in plain per-run fields and adds them to
// its registry once, when the run ends (Histogram.AddCounts); without a
// registry it adds nothing and reads no clock. `make telemetry-overhead`
// measures the *enabled* sink against a 5% ns/event budget (DESIGN.md
// §10.3).
//
// All metrics are safe for concurrent use: counters and histogram
// buckets are atomic adds, gauges are atomic stores, and the registry
// itself locks only on (idempotent) registration, never on update.
package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use; a nil *Counter ignores updates and reads as zero.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a single float64 value that can go up and down. The zero
// value reads as 0; a nil *Gauge ignores updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d to the gauge (CAS loop; Set is cheaper when the new value
// is already known).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf
// overflow bucket. The zero value is unusable — build histograms through
// Registry.Histogram or NewHistogram — but a nil *Histogram ignores
// updates, preserving the package's zero-cost default.
type Histogram struct {
	bounds []float64 // strictly increasing finite upper bounds
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a standalone histogram over the given bucket
// upper bounds (which must be strictly increasing and finite).
func NewHistogram(bounds []float64) *Histogram {
	checkBounds(bounds)
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

func checkBounds(bounds []float64) {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("telemetry: non-finite bucket bound %g", b))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: bucket bounds not increasing at %g", b))
		}
	}
}

// Observe records one value in the first bucket whose bound is at least
// v, found by slices.BinarySearch; most histograms here have ~20
// buckets, so this is a handful of comparisons.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i, _ := slices.BinarySearch(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// AddCounts adds observations tallied elsewhere in one step: counts[i]
// observations in bucket i, the last entry being the overflow bucket,
// whose values sum to sum. A tally that places each value the way
// Observe does (slices.BinarySearch over Bounds) adds exactly what
// observing its values one by one would. The engine adds each run's
// decision histograms this way, once per run.
func (h *Histogram) AddCounts(counts []uint64, sum float64) {
	if h == nil {
		return
	}
	if len(counts) != len(h.counts) {
		panic(fmt.Sprintf("telemetry: %d bucket counts for a histogram of %d buckets", len(counts), len(h.counts)))
	}
	var n uint64
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
			n += c
		}
	}
	h.count.Add(n)
	h.addSum(sum)
}

// addSum adds v to the sum (CAS loop).
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
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
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the per-bucket (non-cumulative) counts; the last entry
// is the +Inf overflow bucket.
func (h *Histogram) Buckets() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Bounds returns the finite bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// Quantile estimates the q-quantile (q in [0, 1]) by linear
// interpolation within the bucket that holds it. Observations in the
// overflow bucket clamp to the largest finite bound. Returns 0 when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return bucketQuantile(q, h.Bounds(), h.Buckets())
}

// bucketQuantile is the shared quantile estimator, also used on
// serialized Snapshot data.
func bucketQuantile(q float64, bounds []float64, buckets []uint64) float64 {
	var total uint64
	for _, c := range buckets {
		total += c
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range buckets {
		prev := float64(cum)
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i >= len(bounds) {
			return bounds[len(bounds)-1] // overflow bucket clamps
		}
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		upper := bounds[i]
		return lower + (upper-lower)*(rank-prev)/float64(c)
	}
	return bounds[len(bounds)-1]
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start with the given growth factor (> 1).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default bucket ladder for per-decision latency
// histograms: 50ns to ~1.6s in twenty-five doubling steps, covering
// everything from a cached fast-path decision to a pathological stall.
func LatencyBuckets() []float64 { return ExpBuckets(50e-9, 2, 25) }

// DepthBuckets is the default ladder for queue-depth / heap-size style
// histograms: 1 to 4096 in doubling steps.
func DepthBuckets() []float64 { return ExpBuckets(1, 2, 13) }
