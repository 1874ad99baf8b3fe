// Package obs is the blueprint's telemetry plane: structured span tracing
// propagated through context.Context and across stream boundaries (span.go),
// a process-global metrics registry of lock-free counters, gauges and
// fixed-boundary histograms (this file), and Prometheus text exposition
// (expo.go). The paper argues that making orchestration explicit on streams
// "enhances observability" (§V-A); internal/trace reconstructs *what*
// happened from stream history, and this package adds *how long* — where a
// slow ask spent its time and what p95/p99 look like under load, the
// measurement substrate for overload control and scale-out routing.
//
// Design constraints, in order: the hot path (Histogram.Observe, Counter
// Add) must be lock-free and allocation-free; everything must be safe for
// concurrent use; a disabled plane (SetEnabled(false)) must cost one atomic
// load per instrumentation point. See ARCHITECTURE.md for the overhead
// budget and bucket-ladder rationale.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the global kill switch: span recording and histogram
// observation check it (one atomic load). Counters and gauges stay live
// regardless — they are plain atomic adds and several subsystems rely on
// them operationally. The A10 experiment toggles this to measure the
// instrumented-vs-uninstrumented overhead.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// On reports whether the telemetry plane is recording spans and histogram
// observations.
func On() bool { return enabled.Load() }

// SetEnabled turns span recording and histogram observation on or off.
func SetEnabled(v bool) { enabled.Store(v) }

// Default is the process-global registry. Package-level instruments across
// the codebase register here; blueprintd serves it at GET /metrics.
var Default = NewRegistry()

// metric is the exposition contract every instrument implements.
type metric interface {
	metricName() string
	metricHelp() string
	metricType() string // "counter", "gauge", "histogram"
	// sample appends (suffix, value) exposition samples; histograms append
	// their full bucket/sum/count series.
	sample(emit func(suffix string, v float64))
}

// Registry holds named instruments. Registration is mutex-protected (cold
// path); the instruments themselves are lock-free. Registering a name twice
// returns the existing instrument — func-backed instruments instead replace
// their callback, so a fresh System re-registering its stat bridges wins.
type Registry struct {
	mu    sync.Mutex
	items map[string]metric
	order []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: map[string]metric{}}
}

func (r *Registry) register(name string, make func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.items[name]; ok {
		return m
	}
	m := make()
	r.items[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter returns the named monotonic counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, func() metric { return &Counter{name: name, help: help} })
	c, ok := m.(*Counter)
	if !ok {
		return &Counter{name: name, help: help} // name collision: orphan
	}
	return c
}

// Gauge returns the named settable gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, func() metric { return &Gauge{name: name, help: help} })
	g, ok := m.(*Gauge)
	if !ok {
		return &Gauge{name: name, help: help}
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds (ascending; +Inf is implicit) on first use. Later calls
// return the existing instrument regardless of bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.register(name, func() metric { return newHistogram(name, help, bounds) })
	h, ok := m.(*Histogram)
	if !ok {
		return newHistogram(name, help, bounds)
	}
	return h
}

// CounterFunc registers (or re-points) a callback-backed counter — the
// bridge for pre-existing subsystem counters (memo hits, stmt-cache hits,
// durability fsyncs) so /metrics reads one registry instead of ad-hoc
// struct assembly. The callback must be safe for concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.funcMetric(name, help, "counter", fn)
}

// GaugeFunc registers (or re-points) a callback-backed gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.funcMetric(name, help, "gauge", fn)
}

func (r *Registry) funcMetric(name, help, typ string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.items[name]; ok {
		if f, ok := m.(*funcMetric); ok {
			f.mu.Lock()
			f.fn = fn
			f.mu.Unlock()
		}
		return
	}
	r.items[name] = &funcMetric{name: name, help: help, typ: typ, fn: fn}
	r.order = append(r.order, name)
}

// ---- Counter ----

// Counter is a monotonically increasing counter (atomic, lock-free).
type Counter struct {
	v    atomic.Uint64
	name string
	help string
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) metricType() string { return "counter" }
func (c *Counter) sample(emit func(string, float64)) {
	emit("", float64(c.v.Load()))
}

// ---- Gauge ----

// Gauge is a settable instantaneous value (atomic int64, lock-free). Worker
// occupancy, queue depths and resident sizes use it.
type Gauge struct {
	v    atomic.Int64
	name string
	help string
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) metricType() string { return "gauge" }
func (g *Gauge) sample(emit func(string, float64)) {
	emit("", float64(g.v.Load()))
}

// ---- func-backed bridge ----

type funcMetric struct {
	name string
	help string
	typ  string
	mu   sync.Mutex
	fn   func() float64
}

func (f *funcMetric) metricName() string { return f.name }
func (f *funcMetric) metricHelp() string { return f.help }
func (f *funcMetric) metricType() string { return f.typ }
func (f *funcMetric) value() float64 {
	f.mu.Lock()
	fn := f.fn
	f.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}
func (f *funcMetric) sample(emit func(string, float64)) {
	emit("", f.value())
}

// ---- Histogram ----

// Histogram is a fixed-boundary latency/size histogram built for the hot
// path: bucket counts are atomic.Uint64 incremented lock-free, the running
// sum is a CAS loop over float64 bits, and Observe performs zero heap
// allocations (enforced by TestHistogramObserveZeroAllocs and
// BenchmarkHistogramObserve). Quantiles are estimated by linear
// interpolation within the bucket that crosses the requested rank.
type Histogram struct {
	name    string
	help    string
	bounds  []float64 // ascending upper bounds (le); +Inf bucket implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(name, help string, bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		name: name, help: help, bounds: b,
		buckets: make([]atomic.Uint64, len(b)+1),
	}
}

// ExpBuckets builds n upper bounds starting at start, each factor× the
// previous — the power-of-two-ish ladder (factor 2) trades bucket count for
// a bounded ~±50% quantile error anywhere in the range, which is plenty for
// SLO work (p99 "about 8ms" vs "about 16ms" is the actionable distinction).
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default ladder for latency-in-seconds histograms:
// 1µs doubling up to ~134s (28 buckets), covering everything from a cached
// statement execution to a stuck multi-agent plan.
var LatencyBuckets = ExpBuckets(1e-6, 2, 28)

// Observe records v. Lock-free, zero allocations; a no-op while the plane
// is disabled.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start. A zero start (the
// caller skipped the clock read while disabled) is ignored.
func (h *Histogram) ObserveSince(start time.Time) {
	if start.IsZero() {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// snapshotBuckets copies the bucket counts once; all quantiles of one call
// derive from this single snapshot, which is what guarantees monotonicity
// even while writers are racing.
func (h *Histogram) snapshotBuckets() ([]uint64, uint64) {
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		counts[i] = c
		total += c
	}
	return counts, total
}

// Quantiles estimates the requested quantiles (each in [0,1]) from one
// consistent bucket snapshot: for a sorted input, the output is
// non-decreasing even under concurrent Observe calls. See BucketQuantiles.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	counts, _ := h.snapshotBuckets()
	return BucketQuantiles(h.bounds, counts, qs...)
}

// BucketQuantiles estimates the requested quantiles (each in [0,1]) of a
// histogram given its ascending finite upper bounds and per-bucket (not
// cumulative) counts, one more count than bounds for the +Inf bucket. It
// interpolates linearly within the bucket that crosses the requested rank.
// With no observations it returns zeros; values in the +Inf bucket clamp
// to the top finite bound (0 when there is none). Histogram.Quantiles and clients of the scraped
// `_bucket{le=...}` series (bpctl top) share it, so both report the same
// estimate.
func BucketQuantiles(bounds []float64, counts []uint64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return out
	}
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		rank := q * float64(total)
		var cum float64
		for bi, c := range counts {
			prev := cum
			cum += float64(c)
			if cum < rank || c == 0 {
				continue
			}
			if bi >= len(bounds) { // +Inf bucket
				if len(bounds) > 0 {
					out[i] = bounds[len(bounds)-1]
				}
				break
			}
			lower := 0.0
			if bi > 0 {
				lower = bounds[bi-1]
			}
			upper := bounds[bi]
			out[i] = lower + (upper-lower)*((rank-prev)/float64(c))
			break
		}
	}
	return out
}

// Quantile estimates a single quantile; see Quantiles.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Quantiles(q)[0]
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) metricType() string { return "histogram" }
func (h *Histogram) sample(emit func(string, float64)) {
	counts, total := h.snapshotBuckets()
	var cum uint64
	for i, b := range h.bounds {
		cum += counts[i]
		emit(bucketSuffix(b), float64(cum))
	}
	cum += counts[len(counts)-1]
	emit(`_bucket{le="+Inf"}`, float64(cum))
	emit("_sum", h.Sum())
	emit("_count", float64(total))
}
