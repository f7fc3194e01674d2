package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline writes entries as a BENCH_hotpath.json-shaped file.
func writeBaseline(t *testing.T, entries ...Entry) string {
	t.Helper()
	buf, err := json.Marshal(Report{NumCPU: 2, HotPath: entries})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGates(t *testing.T) {
	serial := Entry{Name: "kv/Get", NSPerAccess: 100, Parallelism: 1}
	scaling := Entry{Name: "kv/Cas/contended/p2", NSPerAccess: 100, Parallelism: 2, Gate: gateScaling}
	base := writeBaseline(t, serial, scaling)

	for _, tc := range []struct {
		name  string
		fresh Entry
		fail  string // "" = passes; else a substring of the error
	}{
		{"within tolerance", Entry{Name: "kv/Get", NSPerAccess: 129, Parallelism: 1}, ""},
		{"slower than tolerance", Entry{Name: "kv/Get", NSPerAccess: 131, Parallelism: 1}, "regressed"},
		{"allocates", Entry{Name: "kv/Get", NSPerAccess: 90, AllocsPerAccess: 1e-6, Parallelism: 1}, "regressed"},
		{"parallelism differs", Entry{Name: "kv/Get", NSPerAccess: 90, Parallelism: 2}, "refusing to compare"},
		{"scaling row not gated", Entry{Name: "kv/Cas/contended/p2", NSPerAccess: 900, AllocsPerAccess: 1, Parallelism: 2, Gate: gateScaling}, ""},
		{"no baseline row", Entry{Name: "kv/Get/contended/locked/p4", NSPerAccess: 900, Parallelism: 4, Gate: gateScaling}, ""},
	} {
		err := compare(base, []Entry{tc.fresh}, 0.30)
		switch {
		case tc.fail == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.fail)
		}
	}
}

// TestCompareRefusesUnrecordedParallelism: a baseline row without a
// recorded parallelism cannot be matched to a fresh row.
func TestCompareRefusesUnrecordedParallelism(t *testing.T) {
	base := writeBaseline(t, Entry{Name: "kv/Get", NSPerAccess: 100})
	if err := compare(base, []Entry{{Name: "kv/Get", NSPerAccess: 100, Parallelism: 1}}, 0.30); err == nil {
		t.Fatal("compared a row against a baseline with no recorded parallelism")
	}
}

func TestCheckScaling(t *testing.T) {
	locked := Entry{Name: "kv/Get/contended/locked/p8", AccessesPerSec: 10e6, Parallelism: 8, Gate: gateScaling}
	opt := func(accPerSec float64) Entry {
		return Entry{Name: "kv/Get/contended/optimistic/p8", AccessesPerSec: accPerSec, Parallelism: 8, Gate: gateScaling}
	}
	if err := checkScaling([]Entry{locked, opt(31e6)}, 8); err != nil {
		t.Errorf("3.1x at p8 failed the %.1fx floor: %v", minScalingRatio, err)
	}
	if err := checkScaling([]Entry{locked, opt(29e6)}, 8); err == nil {
		t.Errorf("2.9x at p8 passed the %.1fx floor", minScalingRatio)
	}
	// A host with fewer than 8 CPUs measures no p8 rows: nothing to gate.
	if err := checkScaling([]Entry{{Name: "kv/Get", Parallelism: 1}}, 2); err != nil {
		t.Errorf("missing p8 rows: %v", err)
	}
}

// TestMeasureSerialRowDoesNotAllocate pins the harness itself: a
// one-goroutine row runs on the caller, so an allocation-free loop
// records 0 allocs/access.
func TestMeasureSerialRowDoesNotAllocate(t *testing.T) {
	var sink uint64
	e := measure("noop", 20_000, 1, gateSerial, func(rng uint64) { sink += rng })
	if e.AllocsPerAccess != 0 || e.Parallelism != 1 || e.Accesses != 20_000 {
		t.Fatalf("serial row %+v, want 20000 accesses at p1 with 0 allocs", e)
	}
	e = measure("noop", 20_000, 2, gateScaling, func(uint64) {})
	if e.Parallelism != 2 || e.Accesses != 20_000 {
		t.Fatalf("p2 row %+v, want 20000 accesses at p2", e)
	}
}
