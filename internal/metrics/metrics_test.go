package metrics

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip: every value lands in a bucket that contains it,
// adjacent buckets tile the value space without gaps, and the bucket
// width honors the documented relative-error bound.
func TestBucketRoundTrip(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	values := []uint64{0, 1, 31, 32, 33, 63, 64, 1023, 1024, 1 << 20, 1<<63 - 1, 1 << 63, math.MaxUint64}
	for i := 0; i < 10000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		values = append(values, rng>>(rng%64))
	}
	for _, v := range values {
		idx := bucketIndex(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, idx)
		}
		lo, hi := bucketLower(idx), bucketUpper(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d outside its bucket %d: [%d, %d]", v, idx, lo, hi)
		}
		if lo > 0 {
			if width := float64(hi-lo+1) / float64(lo); width > HistogramRelativeError*1.0001 && hi != lo {
				t.Fatalf("bucket %d [%d,%d]: relative width %.4f exceeds bound %.4f",
					idx, lo, hi, width, HistogramRelativeError)
			}
		}
	}
	// Tiling: consecutive buckets meet exactly.
	for idx := 0; idx < histBuckets-1; idx++ {
		if bucketLower(idx+1) != bucketUpper(idx)+1 {
			t.Fatalf("gap between buckets %d and %d: upper %d, next lower %d",
				idx, idx+1, bucketUpper(idx), bucketLower(idx+1))
		}
	}
}

// TestQuantileBounds: quantiles of a known uniform distribution come back
// within the documented relative error, from above, and never above Max.
func TestQuantileBounds(t *testing.T) {
	var h Histogram
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != n {
		t.Fatalf("Count = %d, want %d", h.Count(), n)
	}
	if h.Max() != n*time.Microsecond {
		t.Fatalf("Max = %v, want %v", h.Max(), n*time.Microsecond)
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 1.0} {
		got := h.Quantile(q)
		exact := time.Duration(q*n) * time.Microsecond
		if got < exact {
			t.Errorf("Quantile(%v) = %v below exact %v (must overestimate)", q, got, exact)
		}
		if limit := time.Duration(float64(exact) * (1 + HistogramRelativeError)); got > limit {
			t.Errorf("Quantile(%v) = %v exceeds error bound %v", q, got, limit)
		}
		if got > h.Max() {
			t.Errorf("Quantile(%v) = %v above Max %v", q, got, h.Max())
		}
	}
	var empty Histogram
	if got := empty.Quantile(0.99); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
}

// TestRecordZeroAllocs is the tentpole contract: recording must not
// allocate. cmd/benchregress enforces the same property as a CI row.
func TestRecordZeroAllocs(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("test_latency_seconds", "", "test")
	c := reg.Counter("test_ops_total", "", "test")
	g := reg.Gauge("test_active", "", "test")
	var rng uint64 = 1
	if n := testing.AllocsPerRun(10000, func() {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		h.RecordNS(int64(rng % 10_000_000))
	}); n != 0 {
		t.Errorf("Histogram.RecordNS allocates %.2f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(10000, func() { c.Inc(); g.Add(1); g.Add(-1) }); n != 0 {
		t.Errorf("Counter/Gauge ops allocate %.2f/op, want 0", n)
	}
}

// TestRecordNMatchesRepeatedRecord: RecordN(ns, n) leaves a histogram
// exactly as n RecordNS(ns) calls would — buckets, count, sum and max —
// and n <= 0 records nothing.
func TestRecordNMatchesRepeatedRecord(t *testing.T) {
	var bulk, single Histogram
	for _, s := range []struct {
		ns int64
		n  int
	}{{0, 3}, {-5, 2}, {31, 1}, {1500, 64}, {7_000_000, 17}, {42, 0}, {42, -3}} {
		bulk.RecordN(s.ns, s.n)
		for i := 0; i < s.n; i++ {
			single.RecordNS(s.ns)
		}
	}
	if bulk.Count() != single.Count() || bulk.Sum() != single.Sum() || bulk.Max() != single.Max() {
		t.Fatalf("RecordN: count/sum/max %d/%v/%v, RecordNS: %d/%v/%v",
			bulk.Count(), bulk.Sum(), bulk.Max(), single.Count(), single.Sum(), single.Max())
	}
	for i := range bulk.counts {
		if b, s := bulk.counts[i].Load(), single.counts[i].Load(); b != s {
			t.Fatalf("bucket %d: RecordN %d, RecordNS %d", i, b, s)
		}
	}
	if n := testing.AllocsPerRun(1000, func() { bulk.RecordN(12345, 64) }); n != 0 {
		t.Errorf("Histogram.RecordN allocates %.2f/op, want 0", n)
	}
}

// TestPrometheusExposition: a registry with every metric kind, labeled
// families, and a collector renders exposition that Lint accepts and
// that contains the expected series.
func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("app_requests_total", "", "requests served")
	reg.Counter("app_errors_total", `kind="io"`, "errors by kind")
	reg.Counter("app_errors_total", `kind="proto"`, "errors by kind")
	g := reg.Gauge("app_conns_active", "", "open connections")
	hGet := reg.Histogram("app_op_latency_seconds", `op="get"`, "op service time")
	hSet := reg.Histogram("app_op_latency_seconds", `op="set"`, "op service time")
	reg.Collect(func(e *Expo) {
		e.Family("app_shard_items", "gauge", "resident items per shard")
		for i := 0; i < 3; i++ {
			e.Sample("app_shard_items", fmt.Sprintf(`shard="%d"`, i), float64(10*i))
		}
	})

	c.Add(42)
	g.Set(7)
	for i := 1; i <= 1000; i++ {
		hGet.Record(time.Duration(i) * 50 * time.Microsecond)
	}
	hSet.Record(3 * time.Millisecond)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatalf("Lint rejected own exposition: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE app_requests_total counter",
		"app_requests_total 42",
		`app_errors_total{kind="proto"} 0`,
		"app_conns_active 7",
		"# TYPE app_op_latency_seconds histogram",
		`app_op_latency_seconds_bucket{op="get",le="+Inf"} 1000`,
		`app_op_latency_seconds_count{op="get"} 1000`,
		`app_op_latency_seconds_count{op="set"} 1`,
		`app_shard_items{shard="2"} 20`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// The histogram sum must be the true sum in seconds: 1000 samples of
	// i*50us sum to 25.025 seconds.
	if !strings.Contains(out, `app_op_latency_seconds_sum{op="get"} 25.025`) {
		t.Errorf("histogram sum wrong:\n%s", out)
	}
}

// TestLintCatchesViolations: the validator actually rejects malformed
// exposition, so passing it means something.
func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"sample without TYPE", "orphan_metric 1\n"},
		{"bad value", "# TYPE m counter\nm notanumber\n"},
		{"bad name", "# TYPE m counter\nm 1\n0bad 2\n"},
		{"duplicate series", "# TYPE m counter\nm 1\nm 2\n"},
		{"histogram without +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"non-cumulative histogram", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"inf bucket != count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 6\n"},
		{"le not increasing", "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Lint([]byte(tc.data)); err == nil {
				t.Errorf("Lint accepted %s:\n%s", tc.name, tc.data)
			}
		})
	}
}

// TestRegistryWiringPanics: duplicate series and interleaved families are
// wiring bugs caught at registration.
func TestRegistryWiringPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("duplicate series", func() {
		reg := NewRegistry()
		reg.Counter("m", "", "x")
		reg.Counter("m", "", "x")
	})
	mustPanic("interleaved family", func() {
		reg := NewRegistry()
		reg.Counter("a", `k="1"`, "x")
		reg.Counter("b", "", "x")
		reg.Counter("a", `k="2"`, "x")
	})
	mustPanic("mixed kinds in family", func() {
		reg := NewRegistry()
		reg.Counter("m", `k="1"`, "x")
		reg.Gauge("m", `k="2"`, "x")
	})
}

// TestConcurrentRecordAndScrape: records race scrapes under -race; totals
// must come out exact and every mid-flight exposition must lint.
func TestConcurrentRecordAndScrape(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_lat_seconds", "", "t")
	c := reg.Counter("t_ops_total", "", "t")
	const workers, per = 8, 20000

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := reg.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
			if err := Lint(buf.Bytes()); err != nil {
				t.Errorf("mid-flight exposition invalid: %v", err)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			rng := id*2654435761 + 1
			for i := 0; i < per; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				h.RecordNS(int64(rng % 1_000_000))
				c.Inc()
			}
		}(uint64(w))
	}
	// Wait for recorders, then stop the scraper.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done

	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := c.Load(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
}
