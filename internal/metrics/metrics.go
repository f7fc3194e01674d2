// Package metrics is the dependency-free observability core of the
// serving stack: atomic counters and gauges plus bounded-error
// log-bucketed latency histograms, exported as Prometheus text
// exposition.
//
// The design constraint is the same one the adaptive hot path lives
// under: recording must cost nothing but a handful of atomic adds — no
// allocation, no lock, no formatting. All formatting happens at scrape
// time, and a scrape never blocks a recorder: every read is an atomic
// load, so snapshotting N shards' worth of state costs N loads, not N
// lock acquisitions held simultaneously.
//
// Histograms bucket values on a log scale with histSubCount linear
// sub-buckets per octave, so any recorded value lands in a bucket whose
// width is at most 1/histSubCount (3.125%) of its lower bound. Quantile
// extraction returns a bucket upper bound clamped to the observed
// maximum, making reported percentiles overestimates by at most that
// relative error — the bounded-error contract monitoring needs to trust
// a p99.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// --- Counter and Gauge -----------------------------------------------------

// Counter is a monotonically increasing event count. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed level (active connections, queue
// depth). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// --- Histogram -------------------------------------------------------------

// Histogram bucket layout: values below histSubCount get exact unit
// buckets; above, each power-of-two octave is split into histSubCount
// linear sub-buckets, so bucket width / bucket lower bound is at most
// 2^-histSubBits. Values are recorded in nanoseconds; 64-bit range is
// covered without clamping.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits // 32 sub-buckets per octave
	// histBuckets covers indexes up to bucketIndex(math.MaxUint64) =
	// (63-histSubBits)*histSubCount + 2*histSubCount - 1.
	histBuckets = (64-histSubBits)*histSubCount + histSubCount

	// HistogramRelativeError is the documented bound: a reported bucket
	// bound (and therefore any Quantile) overestimates the true value by
	// at most this fraction.
	HistogramRelativeError = 1.0 / histSubCount
)

// bucketIndex maps a value to its bucket. Monotone in v.
func bucketIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	e := bits.Len64(v) - 1 // position of the leading one; >= histSubBits
	// Top histSubBits+1 bits of v, leading one included: in
	// [histSubCount, 2*histSubCount).
	return (e-histSubBits)*histSubCount + int(v>>uint(e-histSubBits))
}

// bucketLower returns the smallest value mapping to bucket idx.
func bucketLower(idx int) uint64 {
	if idx < histSubCount {
		return uint64(idx)
	}
	oct := idx / histSubCount // >= 1
	sub := idx % histSubCount
	return uint64(histSubCount+sub) << uint(oct-1)
}

// bucketUpper returns the largest value mapping to bucket idx.
func bucketUpper(idx int) uint64 {
	if idx < histSubCount {
		return uint64(idx)
	}
	oct := idx / histSubCount
	return bucketLower(idx) + 1<<uint(oct-1) - 1
}

// Histogram is a fixed-size concurrent latency histogram. The zero value
// is NOT ready to use — obtain one from Registry.Histogram (the counts
// array makes stack copies expensive, so histograms live behind
// pointers).
//
// Record is the zero-allocation hot path: one bucket increment plus
// count, sum, and max maintenance, all atomic.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
	max    atomic.Uint64 // nanoseconds
}

// Record adds one observation. Negative durations count as zero.
func (h *Histogram) Record(d time.Duration) { h.RecordNS(int64(d)) }

// RecordNS adds one observation of ns nanoseconds. It performs no
// allocation and takes no lock (cmd/benchregress enforces the former).
func (h *Histogram) RecordNS(ns int64) { h.RecordN(ns, 1) }

// RecordN adds n observations of ns nanoseconds each — what n RecordNS
// calls would record, with one bucket, count and sum add and one max
// update. n <= 0 records nothing.
func (h *Histogram) RecordN(ns int64, n int) {
	if n <= 0 {
		return
	}
	if ns < 0 {
		ns = 0
	}
	v := uint64(ns)
	h.counts[bucketIndex(v)].Add(uint64(n))
	h.count.Add(uint64(n))
	h.sum.Add(v * uint64(n))
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest recorded observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) of the
// recorded values, at most HistogramRelativeError above the true value
// and never above Max. It returns 0 for an empty histogram. Concurrent
// Records may skew an in-flight Quantile by the racing observations;
// callers wanting exactness quiesce first.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			upper := bucketUpper(i)
			if m := h.max.Load(); upper > m {
				upper = m
			}
			return time.Duration(upper)
		}
	}
	return time.Duration(h.max.Load()) // racing records; max is the honest answer
}

// --- Registry --------------------------------------------------------------

// kind strings double as the Prometheus TYPE keywords.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

type entry struct {
	family string // metric (family) name
	labels string // label pairs without braces, e.g. `op="get"`; may be ""
	help   string
	kind   string

	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	histRaw   bool // expose bucket bounds/sum in raw units, not ns→seconds
	collector func(*Expo)
}

// Registry holds a set of named metrics and renders them as Prometheus
// text exposition. Register families in contiguous runs: all series of
// one family (same name, different labels) must be registered
// consecutively, as the format requires their samples grouped under one
// TYPE header. Registration methods panic on a duplicate series or an
// interleaved family — both are wiring bugs, not runtime conditions.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	series  map[string]struct{} // family + "{" + labels: duplicate guard
	closed  map[string]struct{} // families that may not reopen
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: make(map[string]struct{}),
		closed: make(map[string]struct{}),
	}
}

func (r *Registry) add(e *entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := e.family + "{" + e.labels
	if _, dup := r.series[key]; dup {
		panic(fmt.Sprintf("metrics: duplicate series %s{%s}", e.family, e.labels))
	}
	if n := len(r.entries); n == 0 || r.entries[n-1].family != e.family {
		if _, was := r.closed[e.family]; was {
			panic(fmt.Sprintf("metrics: family %s registered non-contiguously", e.family))
		}
		if n > 0 {
			r.closed[r.entries[n-1].family] = struct{}{}
		}
	} else if r.entries[n-1].kind != e.kind {
		panic(fmt.Sprintf("metrics: family %s mixes kinds %s and %s", e.family, r.entries[n-1].kind, e.kind))
	}
	r.series[key] = struct{}{}
	r.entries = append(r.entries, e)
}

// Counter registers and returns a counter series. labels is either empty
// or Prometheus label pairs without braces (`op="get"`).
func (r *Registry) Counter(family, labels, help string) *Counter {
	c := &Counter{}
	r.add(&entry{family: family, labels: labels, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(family, labels, help string) *Gauge {
	g := &Gauge{}
	r.add(&entry{family: family, labels: labels, help: help, kind: kindGauge, gauge: g})
	return g
}

// Histogram registers and returns a histogram series. Observations are
// nanoseconds; the exposition renders bounds and sum in seconds.
func (r *Registry) Histogram(family, labels, help string) *Histogram {
	h := &Histogram{}
	r.add(&entry{family: family, labels: labels, help: help, kind: kindHistogram, hist: h})
	return h
}

// HistogramUnitless registers and returns a histogram series whose
// observations are dimensionless counts (batch sizes, queue depths)
// recorded via RecordNS; the exposition renders bounds and sum in the
// recorded unit instead of converting nanoseconds to seconds.
func (r *Registry) HistogramUnitless(family, labels, help string) *Histogram {
	h := &Histogram{}
	r.add(&entry{family: family, labels: labels, help: help, kind: kindHistogram, hist: h, histRaw: true})
	return h
}

// Collect registers a callback that contributes exposition at scrape
// time — for state that lives elsewhere (per-shard cache counters) and
// is snapshotted on demand rather than double-counted into static
// metrics. The callback must emit complete families via the Expo helper.
func (r *Registry) Collect(f func(*Expo)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.entries); n > 0 {
		r.closed[r.entries[n-1].family] = struct{}{}
	}
	r.entries = append(r.entries, &entry{kind: "collector", collector: f})
}

// WritePrometheus renders every registered metric in text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	e := newExpo(w)
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()

	lastFamily := ""
	for _, en := range entries {
		if en.collector != nil {
			en.collector(e)
			lastFamily = ""
			continue
		}
		if en.family != lastFamily {
			e.Family(en.family, en.kind, en.help)
			lastFamily = en.family
		}
		switch en.kind {
		case kindCounter:
			e.Sample(en.family, en.labels, float64(en.counter.Load()))
		case kindGauge:
			e.Sample(en.family, en.labels, float64(en.gauge.Load()))
		case kindHistogram:
			writeHistogram(e, en.family, en.labels, en.hist, en.histRaw)
		}
	}
	return e.Flush()
}

// Handler returns an http.Handler serving the exposition — mount it at
// /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// writeHistogram renders one histogram series: cumulative le buckets at
// power-of-two boundaries spanning the observed range (the full
// sub-octave resolution stays queryable via Quantile; the exposition
// trades it for a bounded line count), then +Inf, _sum, and _count.
// Bucket counts come from one pass over the array, so the +Inf bucket
// always equals _count even while records race the scrape. raw exposes
// the recorded units as-is; otherwise nanoseconds render as seconds.
func writeHistogram(e *Expo, family, labels string, h *Histogram, raw bool) {
	scale := 1e9
	if raw {
		scale = 1
	}
	var counts [histBuckets]uint64
	total := uint64(0)
	lo, hi := -1, -1
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		counts[i] = c
		total += c
		if lo < 0 {
			lo = i
		}
		hi = i
	}
	sumNS := h.sum.Load()

	if total > 0 {
		// Octave exponents covering [lower(lo), upper(hi)]:
		// le = 2^k nanoseconds for k in [kLo, kHi].
		kLo := bits.Len64(bucketLower(lo))
		kHi := bits.Len64(bucketUpper(hi))
		var cum uint64
		next := 0 // first bucket not yet accumulated
		for k := kLo; k <= kHi; k++ {
			bound := uint64(1) << uint(k)
			stop := bucketIndex(bound) // buckets below `stop` hold values < bound... and bucket of bound-1 ends at bound-1
			for ; next < stop && next < histBuckets; next++ {
				cum += counts[next]
			}
			e.SampleLE(family, labels, float64(bound)/scale, cum)
		}
	}
	e.SampleLE(family, labels, math.Inf(1), total)
	e.Sample(family+"_sum", labels, float64(sumNS)/scale)
	e.Sample(family+"_count", labels, float64(total))
}

// --- Exposition writing ----------------------------------------------------

// Expo writes Prometheus text exposition. Collectors receive one to emit
// families the registry does not own; all methods buffer, and errors
// surface once at Flush.
type Expo struct {
	bw *bufio.Writer
}

func newExpo(w io.Writer) *Expo { return &Expo{bw: bufio.NewWriterSize(w, 4096)} }

// Family emits the HELP and TYPE headers for a metric family. kind is
// "counter", "gauge", or "histogram".
func (e *Expo) Family(name, kind, help string) {
	e.bw.WriteString("# HELP ")
	e.bw.WriteString(name)
	e.bw.WriteByte(' ')
	e.bw.WriteString(help)
	e.bw.WriteString("\n# TYPE ")
	e.bw.WriteString(name)
	e.bw.WriteByte(' ')
	e.bw.WriteString(kind)
	e.bw.WriteByte('\n')
}

// Sample emits one sample line. labels is either empty or label pairs
// without braces.
func (e *Expo) Sample(name, labels string, v float64) {
	e.bw.WriteString(name)
	if labels != "" {
		e.bw.WriteByte('{')
		e.bw.WriteString(labels)
		e.bw.WriteByte('}')
	}
	e.bw.WriteByte(' ')
	e.bw.WriteString(formatValue(v))
	e.bw.WriteByte('\n')
}

// SampleLE emits one cumulative histogram bucket line for family, with
// the le label appended after any series labels.
func (e *Expo) SampleLE(family, labels string, le float64, cum uint64) {
	e.bw.WriteString(family)
	e.bw.WriteString("_bucket{")
	if labels != "" {
		e.bw.WriteString(labels)
		e.bw.WriteByte(',')
	}
	e.bw.WriteString(`le="`)
	if math.IsInf(le, 1) {
		e.bw.WriteString("+Inf")
	} else {
		e.bw.WriteString(formatValue(le))
	}
	e.bw.WriteString(`"} `)
	e.bw.WriteString(strconv.FormatUint(cum, 10))
	e.bw.WriteByte('\n')
}

// Flush drains the buffer, returning the first write error.
func (e *Expo) Flush() error { return e.bw.Flush() }

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
