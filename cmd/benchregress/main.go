// Command benchregress holds the in-process micro gates for the hot paths
// everything else is built on: a plain LRU probe-and-fill
// (Cache.AccessTag), a full adaptive access (real array + two shadow
// arrays + history), the adaptivekv get/set/cas paths, and the metrics
// histogram record primitive every kvserver latency observation runs
// through — plus, optionally, the wall clock of the ExtendedSet macro
// sweep. It writes the results to a JSON file:
//
//	benchregress                        # measure, write BENCH_hotpath.json
//	benchregress -macro-n 0             # hot-path loops only (fast)
//	benchregress -check                 # re-measure, compare, exit 1 on regression
//
// It links no server, protocol or cluster code. Numbers for the serving
// stack come from cmd/kvbench, the benchmark of record, which verifies
// every reply and records the hardware each run was measured on.
//
// Each row records accesses/sec, ns/access, allocs/access, wall clock,
// and the GOMAXPROCS the row was pinned to. allocs/access must be 0 on
// the serial rows: the adaptive path was made allocation-free, and any
// nonzero value there is a regression regardless of timing noise. -check
// compares ns/access against the committed file with a configurable
// tolerance so CI can catch slowdowns without flaking on machine jitter,
// and refuses outright to compare rows measured at different parallelism
// — a p1 baseline against a p8 fresh run is provenance corruption, not a
// regression signal.
//
// The contended rows hammer a single hot shard from p goroutines with
// GOMAXPROCS pinned to p, for each p in {1, 2, 4, 8} up to the host's CPU
// count; a row the host cannot run is skipped, never written:
//
//   - kv/Get/contended/locked/pN: Gets of resident keys, each under the
//     shard lock, the only read path adaptivekv has.
//   - kv/GetSet/contended/locked/pN: mixed traffic, 3 gets to 1 set over
//     a keyspace twice the capacity, so sets keep evicting while readers
//     probe the same sets.
//   - kv/Cas/contended/pN: gets/cas read-modify-write loops. Every
//     CompareAndSwap takes the shard lock, so the row records what
//     contended atomic RMW costs next to the plain-read rows.
//
// Contended rows are recorded for the scaling curve but exempt from the
// serial ns-vs-baseline and zero-alloc gates (starting goroutines
// allocates, and cross-machine parallel timing is not comparable at CI
// tolerances).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/adaptivekv"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Gate classes: which -check gates apply to a row.
const (
	gateSerial  = ""        // ns-vs-baseline + zero-alloc (default)
	gateScaling = "scaling" // contended rows: recorded, not gated
)

// Entry is one measured hot-path loop. Parallelism is the GOMAXPROCS
// the row was pinned to while measuring (1 for the serial loops).
type Entry struct {
	Name            string  `json:"name"`
	Accesses        uint64  `json:"accesses"`
	WallNS          int64   `json:"wall_ns"`
	NSPerAccess     float64 `json:"ns_per_access"`
	AccessesPerSec  float64 `json:"accesses_per_sec"`
	AllocsPerAccess float64 `json:"allocs_per_access"`
	Parallelism     int     `json:"parallelism,omitempty"`
	Gate            string  `json:"gate,omitempty"`
}

// Macro is the optional end-to-end figure-regeneration measurement.
type Macro struct {
	Name         string  `json:"name"`
	InstrsPerRun uint64  `json:"instrs_per_run"`
	WallNS       int64   `json:"wall_ns"`
	Seconds      float64 `json:"seconds"`
}

// Report is the file format of BENCH_hotpath.json. GoMaxProcs is the
// ambient setting at process start; each row additionally records the
// value it was pinned to, which is the one that matters for comparison.
type Report struct {
	Date       string  `json:"date"`
	GoOS       string  `json:"goos"`
	GoArch     string  `json:"goarch"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs,omitempty"`
	HotPath    []Entry `json:"hot_path"`
	Macro      *Macro  `json:"macro,omitempty"`
}

func main() {
	var (
		n      = flag.Uint64("n", 5_000_000, "accesses per hot-path measurement")
		macroN = flag.Uint64("macro-n", 1_000_000, "instructions per run for the ExtendedSet macro sweep (0 = skip)")
		out    = flag.String("out", "BENCH_hotpath.json", "result file")
		check  = flag.Bool("check", false, "compare a fresh measurement against -out instead of overwriting it")
		tol    = flag.Float64("tolerance", 0.30, "allowed fractional ns/access slowdown in -check mode")
	)
	flag.Parse()
	if err := realMain(*n, *macroN, *out, *check, *tol); err != nil {
		fmt.Fprintln(os.Stderr, "benchregress:", err)
		os.Exit(1)
	}
}

func realMain(n, macroN uint64, out string, check bool, tol float64) error {
	if n == 0 {
		return fmt.Errorf("-n must be > 0")
	}
	rep := Report{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoOS:       runtime.GOOS,
		GoArch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		HotPath:    []Entry{measureLRU(n), measureAdaptive(n), measureKVGet(n), measureKVGetTTL(n), measureKVSet(n), measureHistogram(n)},
	}
	for _, procs := range []int{1, 2, 4, 8} {
		if procs > rep.NumCPU {
			fmt.Printf("%-36s skipped: needs %d CPUs, host has %d\n",
				fmt.Sprintf("kv/*/contended/*/p%d", procs), procs, rep.NumCPU)
			continue
		}
		rep.HotPath = append(rep.HotPath,
			measureContended(n, procs),
			measureContendedGetSet(n, procs),
			measureContendedCas(n, procs))
	}
	for _, e := range rep.HotPath {
		fmt.Printf("%-36s %12.0f acc/s %8.2f ns/acc %8.3f allocs/acc  p%d\n",
			e.Name, e.AccessesPerSec, e.NSPerAccess, e.AllocsPerAccess, e.Parallelism)
	}
	if check {
		return compare(out, rep.HotPath, tol)
	}

	if macroN > 0 {
		m := measureMacro(macroN)
		rep.Macro = &m
		fmt.Printf("%-28s %12.2f s\n", m.Name, m.Seconds)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

// measure times n calls of fn split across procs goroutines, GOMAXPROCS
// pinned to procs for the duration so the recorded parallelism is the
// measured one, whatever the ambient setting. A serial warm-up of n/10
// calls first brings the caches to steady state, so the allocation count
// reflects the sustained path rather than one-time table fills. Each
// goroutine feeds fn its own xorshift stream; a one-goroutine row runs
// on the caller, so it starts no goroutine inside the timed window.
func measure(name string, n uint64, procs int, gate string, fn func(rng uint64)) Entry {
	rng := uint64(1)
	for i := uint64(0); i < n/10; i++ {
		rng = xorshift(rng)
		fn(rng)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	per := n / uint64(procs)
	run := func(rng uint64) {
		for i := uint64(0); i < per; i++ {
			rng = xorshift(rng)
			fn(rng)
		}
	}
	e := Entry{Name: name, Accesses: per * uint64(procs), Parallelism: procs, Gate: gate}
	for pass := 0; pass < 2; pass++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		if procs == 1 {
			run(rng)
		} else {
			var wg sync.WaitGroup
			for g := 0; g < procs; g++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					run(seed)
				}(rng + uint64(g)*0x9e3779b97f4a7c15)
			}
			wg.Wait()
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		e.WallNS = wall.Nanoseconds()
		e.NSPerAccess = float64(e.WallNS) / float64(e.Accesses)
		e.AccessesPerSec = float64(e.Accesses) / wall.Seconds()
		e.AllocsPerAccess = float64(after.Mallocs-before.Mallocs) / float64(e.Accesses)
		// One-shot runtime events (a GC cycle or finalizer wakeup landing
		// inside the timed window) can charge a stray malloc to an
		// otherwise allocation-free serial loop. A genuine per-access
		// allocation reproduces on every pass, so one clean re-measure
		// separates the two without loosening the zero-allocation gate.
		if procs > 1 || e.AllocsPerAccess == 0 {
			break
		}
	}
	return e
}

// xorshift advances the RNG that picks each row's keys.
func xorshift(rng uint64) uint64 {
	rng ^= rng << 13
	rng ^= rng >> 7
	rng ^= rng << 17
	return rng
}

func measureLRU(n uint64) Entry {
	g := cache.Geometry{SizeBytes: 512 << 10, LineBytes: 64, Ways: 8}
	c := cache.New(g, policy.NewLRU())
	sets := g.Sets()
	return measure("lru/AccessTag", n, 1, gateSerial, func(rng uint64) {
		c.AccessTag(int(rng)&(sets-1), rng>>10, false)
	})
}

func measureAdaptive(n uint64) Entry {
	g := cache.Geometry{SizeBytes: 512 << 10, LineBytes: 64, Ways: 8}
	ad := core.NewAdaptive(core.DefaultComponents(), core.WithShadowTagBits(8))
	c := cache.New(g, ad)
	return measure("adaptive8/Access", n, 1, gateSerial, func(rng uint64) {
		c.Access(cache.Addr(rng%(1<<26)), false)
	})
}

// measureKVGet times the adaptivekv hit path: hash + shard lock + SBAR
// engine probe + key compare. Like the simulator loops, it must not
// allocate in steady state.
func measureKVGet(n uint64) Entry {
	c := adaptivekv.New[uint64, uint64](adaptivekv.Config{})
	const keys = 4096
	for k := uint64(0); k < keys; k++ {
		c.Set(k, k)
	}
	return measure("kv/Get", n, 1, gateSerial, func(rng uint64) {
		c.Get(rng % keys)
	})
}

// measureKVGetTTL times the same hit path with TTL bookkeeping armed:
// every entry carries a far-future deadline, so each Get takes the
// ttlInUse branch and compares the deadline against the coarse clock.
// The row exists to keep that branch allocation-free and to bound its
// cost relative to the plain kv/Get row.
func measureKVGetTTL(n uint64) Entry {
	c := adaptivekv.New[uint64, uint64](adaptivekv.Config{})
	defer c.Close()
	const keys = 4096
	deadline := time.Now().Add(24 * time.Hour).UnixNano()
	for k := uint64(0); k < keys; k++ {
		c.SetTTL(k, k, deadline)
	}
	return measure("kv/Get/ttl", n, 1, gateSerial, func(rng uint64) {
		c.Get(rng % keys)
	})
}

// measureKVSet times steady-state stores over a keyspace several times the
// cache's capacity, so most iterations run the full adaptive victim path.
func measureKVSet(n uint64) Entry {
	c := adaptivekv.New[uint64, uint64](adaptivekv.Config{})
	return measure("kv/Set", n, 1, gateSerial, func(rng uint64) {
		c.Set(rng%100_000, rng)
	})
}

// measureHistogram times metrics.Histogram.RecordNS — the primitive every
// per-op latency observation in kvserver funnels through, sitting inside
// the request loop itself. Its contract is zero allocations per record;
// compare() fails outright on any nonzero allocs/access, so wiring a
// heap-allocating observation path can never land silently.
func measureHistogram(n uint64) Entry {
	h := new(metrics.Histogram)
	return measure("metrics/Record", n, 1, gateSerial, func(rng uint64) {
		h.RecordNS(int64(rng % 50_000_000)) // spread over ~21 octaves of buckets
	})
}

// contendedCache builds the single hot shard the contended rows hammer
// and fills it with keys 0..keys-1. One shard is the worst case on
// purpose: with the default 8 shards, lock contention dilutes.
func contendedCache(keys uint64) *adaptivekv.Cache[uint64, uint64] {
	c := adaptivekv.New[uint64, uint64](adaptivekv.Config{Shards: 1, Sets: 1024, Ways: 4})
	for k := uint64(0); k < keys; k++ {
		c.Set(k, k)
	}
	return c
}

// measureContended hammers the hot shard with Gets of resident keys.
func measureContended(n uint64, procs int) Entry {
	const keys = 4096
	c := contendedCache(keys)
	return measure(fmt.Sprintf("kv/Get/contended/locked/p%d", procs), n, procs, gateScaling, func(rng uint64) {
		c.Get(rng % keys)
	})
}

// measureContendedGetSet hammers the hot shard with 3 Gets to 1 Set over
// twice its capacity: misses, evicting stores and hits on sets a writer
// is writing to, the mix where readers and writers meet on the lock.
func measureContendedGetSet(n uint64, procs int) Entry {
	const keys = 2 * 4096
	c := contendedCache(keys)
	return measure(fmt.Sprintf("kv/GetSet/contended/locked/p%d", procs), n, procs, gateScaling, func(rng uint64) {
		k := (rng >> 2) % keys
		if rng&3 == 0 {
			c.Set(k, rng)
		} else {
			c.Get(k)
		}
	})
}

// measureContendedCas hammers gets/cas read-modify-write loops on a
// single hot shard from procs goroutines: GetCas reads the value with
// its unique, CompareAndSwap attempts the increment, and conflicts are
// simply counted as attempts — a benchmark retry loop would measure the
// conflict rate, not the operation cost. One access = one RMW attempt (a
// GetCas plus a CompareAndSwap).
func measureContendedCas(n uint64, procs int) Entry {
	c := adaptivekv.New[uint64, uint64](adaptivekv.Config{
		Shards: 1, Sets: 1024, Ways: 4,
	})
	const keys = 64 // far under capacity: every key stays resident
	for k := uint64(0); k < keys; k++ {
		c.Set(k, 0)
	}
	return measure(fmt.Sprintf("kv/Cas/contended/p%d", procs), n, procs, gateScaling, func(rng uint64) {
		k := rng % keys
		if v, id, ok := c.GetCas(k); ok {
			c.CompareAndSwap(k, v+1, id, 0)
		}
	})
}

func measureMacro(instrs uint64) Macro {
	o := sim.Options{Instrs: instrs, Warmup: instrs / 5}
	start := time.Now()
	sim.ExtendedSet(o)
	wall := time.Since(start)
	return Macro{
		Name:         "ExtendedSet",
		InstrsPerRun: instrs,
		WallNS:       wall.Nanoseconds(),
		Seconds:      wall.Seconds(),
	}
}

// compare reloads the committed report and fails if any serial hot-path
// loop got slower than tolerance allows or started allocating. Rows
// measured at different parallelism than their baseline are refused
// outright — that is a provenance error, and "p1 baseline vs p8 fresh"
// numbers would be nonsense in either direction. Contended rows are
// reported but not gated against the baseline: cross-machine parallel
// timing is not comparable at CI tolerances.
func compare(path string, fresh []Entry, tol float64) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("no baseline to check against: %w", err)
	}
	var base Report
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	byName := make(map[string]Entry, len(base.HotPath))
	for _, e := range base.HotPath {
		byName[e.Name] = e
	}
	failed := false
	for _, e := range fresh {
		b, ok := byName[e.Name]
		if !ok {
			fmt.Printf("%-36s no baseline entry, skipping\n", e.Name)
			continue
		}
		if b.Parallelism != e.Parallelism {
			return fmt.Errorf("%s: baseline measured at parallelism %d, fresh at %d; refusing to compare", e.Name, b.Parallelism, e.Parallelism)
		}
		if e.Gate != gateSerial {
			fmt.Printf("%-36s info: %.0f acc/s vs baseline %.0f (%s row, not gated)\n",
				e.Name, e.AccessesPerSec, b.AccessesPerSec, e.Gate)
			continue
		}
		limit := b.NSPerAccess * (1 + tol)
		switch {
		case e.AllocsPerAccess > 0:
			fmt.Printf("%-36s FAIL: %.3f allocs/access, hot path must not allocate\n", e.Name, e.AllocsPerAccess)
			failed = true
		case e.NSPerAccess > limit:
			fmt.Printf("%-36s FAIL: %.2f ns/access vs baseline %.2f (limit %.2f)\n",
				e.Name, e.NSPerAccess, b.NSPerAccess, limit)
			failed = true
		default:
			fmt.Printf("%-36s ok: %.2f ns/access vs baseline %.2f\n", e.Name, e.NSPerAccess, b.NSPerAccess)
		}
	}
	if failed {
		return fmt.Errorf("hot-path performance regressed")
	}
	return nil
}
