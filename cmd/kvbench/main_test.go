package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/kvproto"
)

// testPlan is a tiny run: key spaces, warm-up and ladder cut by 2^6.
var testPlan = plan{window: 200 * time.Millisecond, setups: 2, netReqs: 64, shift: 6}

func loadTestBenchmark(t *testing.T) *benchmarkDef {
	t.Helper()
	def, err := loadBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func declared[T any](list []T, nameUnit func(T) (string, string)) map[string]string {
	m := map[string]string{}
	for _, x := range list {
		n, u := nameUnit(x)
		m[n] = u
	}
	return m
}

// sameMetrics fails unless got and want name the same metrics with the
// same units.
func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, m := range got {
		if u, ok := want[name]; !ok {
			t.Errorf("%s: emitted %s, not declared in BENCHMARK.json", what, name)
		} else if u != m.Unit {
			t.Errorf("%s: %s emitted in %s, declared in %s", what, name, m.Unit, u)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: %s declared in BENCHMARK.json, not emitted", what, name)
		}
	}
}

func TestSmoke(t *testing.T) {
	def := loadTestBenchmark(t)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(def.Workloads) || def.Workloads[i].Name != w.name || def.Workloads[i].Why != w.why {
			t.Fatalf("BENCHMARK.json workloads %v do not match %s (name and why, in order)", names, w.name)
		}
	}
	e2e := declared(def.EndToEnd, func(b boundDef) (string, string) { return b.Name, b.Unit })
	layers := declared(def.PerLayer, func(l layerDef) (string, string) { return l.Name, l.Unit })

	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			spans := ""
			if traced {
				spans = filepath.Join(t.TempDir(), "spans.json")
			}
			r, err := runWorkload(w, testPlan, 1, traced, spans)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			what := w.name
			want := e2e
			if traced {
				what += " traced"
				want = layers
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d (%s)", what, r.Correct, r.Attempted, r.Failed, r.FirstFailure)
			}
			sameMetrics(t, what, r.Metrics, want)
			for name, m := range r.Metrics {
				if m.Unit == "ratio" && (m.Value < 0 || m.Value > 1) {
					t.Errorf("%s: %s = %v is not in [0, 1]", what, name, m.Value)
				}
			}
			if !traced && r.Metrics["success_ratio"].Value != 1 {
				t.Errorf("%s: success_ratio %v", what, r.Metrics["success_ratio"].Value)
			}
			if traced {
				if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no span file: %v", what, err)
				}
			}
		}
	}
}

// TestLadderDeterministic: the replay-derived counts repeat exactly for
// a seed and move with it. multiget-hot is exempt from the second half:
// every key is resident and every value the same size, so its counts do
// not depend on the seed.
func TestLadderDeterministic(t *testing.T) {
	exact := []string{"adaptivekv.hit_ratio.sbar", "adaptivekv.hit_ratio.lru", "adaptivekv.hit_ratio.lfu",
		"adaptivekv.miss_ratio_vs_best", "kvproto.wire_bytes_per_op"}
	counts := func(w *workload, seed uint64) []float64 {
		m := map[string]float64{}
		if _, err := inProcessRungs(w, testPlan, seed, nil, m); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var v []float64
		for _, name := range exact {
			v = append(v, m[name])
		}
		return v
	}
	for _, w := range workloads {
		a, b, c := counts(w, 1), counts(w, 1), counts(w, 2)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 1 gave %v, then %v", w.name, a, b)
		}
		if w.name != "multiget-hot" && slices.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 both gave %v", w.name, a)
		}
	}
}

// TestLedgerTrips feeds the write-ttl-cas verifier each kind of
// violation, and the legal cases next to them.
func TestLedgerTrips(t *testing.T) {
	evictions := uint64(0)
	l := newLedger(4, func() uint64 { return evictions })
	key := appendKey(nil, regionBase)
	now := time.Now()

	l.stored(0, 3, time.Time{})
	if !l.hit(0, key, appendVersioned(nil, key, 3)) {
		t.Error("the acknowledged version was judged wrong")
	}
	if l.hit(0, key, appendVersioned(nil, key, 2)) {
		t.Error("a stale version passed")
	}
	if l.miss(0, now) {
		t.Error("a miss with no expiry and no eviction passed")
	}

	l.stored(1, 1, time.Time{})
	if l.cas(1, kvproto.CasExists, 2, time.Time{}, now) {
		t.Error("EXISTS on a key with one writer passed")
	}
	if !l.cas(1, kvproto.CasStored, 2, time.Time{}, now) || l.e[1].version != 2 {
		t.Error("STORED was not recorded")
	}

	l.stored(2, 1, now.Add(time.Second))
	if l.miss(2, now) {
		t.Error("a miss before the TTL deadline passed")
	}
	l.stored(2, 1, now.Add(time.Second))
	if !l.miss(2, now.Add(time.Second)) {
		t.Error("a miss at the TTL deadline failed")
	}
	if !l.cas(2, kvproto.CasNotFound, 2, time.Time{}, now) {
		t.Error("NOT_FOUND on a key known absent failed")
	}

	l.stored(3, 1, time.Time{})
	evictions++
	if !l.miss(3, now) {
		t.Error("a miss after a counted eviction failed")
	}
	if l.hit(3, key, appendVersioned(nil, key, 1)) {
		t.Error("a value came back after its key was known absent")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64, noise float64) []float64 {
		h := make([]float64, len(base))
		for i, b := range base {
			h[i] = b + d + noise*float64(i%3-1)
		}
		return h
	}
	for _, c := range []struct {
		head        []float64
		lowerBetter bool
		want        string
	}{
		{shift(20, 0), false, "improved"},
		{shift(20, 0), true, "regressed"},
		{shift(1, 0), false, "unchanged"},
		{shift(0, 40), false, "unresolved"},
	} {
		if got := verdict(base, c.head, c.lowerBetter, 0.10); got != c.want {
			t.Errorf("head %v lowerBetter=%v: %s, want %s", c.head, c.lowerBetter, got, c.want)
		}
	}
}
