// Command kvloadgen replays internal/workload access patterns as
// key-value traffic against an adaptcached server (or, with -direct, an
// in-process adaptivekv cache). Each connection runs a closed loop: draw
// the next key from its stream, get it, and on a miss set it — the
// read-through idiom the adaptive engine is designed around. The workload
// classes are the same ones the paper uses to explain policy preferences,
// so a server run under "-mix loop" visibly rewards LFU-like behavior and
// "-mix zipf" exercises the hot-set/scan blend.
//
// Examples:
//
//	kvloadgen -addr 127.0.0.1:11311 -conns 4 -ops 400000
//	kvloadgen -mix loop -loop 12000 -conns 8
//	kvloadgen -direct -ops 2000000            # no network, cache API only
//	kvloadgen -min-ops 100000                 # exit 1 below 100k ops/s
//	kvloadgen -procs 4 -multiget 16           # 4 Ps, 16-key multiget rounds
//	kvloadgen -targets a:11311,b:11311,c:11311 # spread conns round-robin, per-target accounting
//
// The report gives aggregate throughput (gets+sets per second), the
// client-observed hit ratio, and client-observed round-trip latency
// percentiles (p50/p95/p99/max, one sample per pipelined batch — per
// operation at -pipeline 1). -min-ops and -max-p99 turn the run into a
// pass/fail CI gate on throughput and tail latency.
//
// -ttl gives half the keyspace (even keys) a finite TTL while the other
// half never expires — a mixed stream that exercises the server's lazy
// and swept expiry paths under load. Each worker remembers the
// deadlines of its own TTL'd sets and the report counts the misses
// explained by expiry ("expired reads") separately from cold misses.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/adaptivekv"
	"repro/internal/kvproto"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// connStats is one worker's tally.
type connStats struct {
	gets, hits, sets uint64
	expiredReads     uint64 // misses on keys this worker had set with a now-passed TTL
	err              error
}

// ttlTracker classifies a worker's misses: it remembers the deadline of
// every TTL'd set the worker issued, so a later miss on that key can be
// attributed to expiry rather than eviction or cold start. Workers
// share the keyspace, so another worker's refresh can mask an expiry —
// the tally is a floor, not an exact census.
type ttlTracker struct {
	ttl       time.Duration
	deadlines map[string]time.Time
}

// exptimeFor splits the stream: even keys carry the finite TTL (as
// relative seconds on the wire), odd keys never expire.
func (tt *ttlTracker) exptimeFor(key []byte) int64 {
	if tt == nil || len(key) == 0 || key[len(key)-1]%2 != 0 {
		return 0
	}
	secs := int64(tt.ttl / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// noteSet records the deadline for a TTL'd set (no-op for infinite keys).
func (tt *ttlTracker) noteSet(key []byte, exptime int64) {
	if tt == nil || exptime == 0 {
		return
	}
	tt.deadlines[string(key)] = time.Now().Add(time.Duration(exptime) * time.Second)
}

// expiredMiss reports whether a miss on key is explained by a passed
// deadline from this worker's own writes. One second of grace covers
// the server's sweep granularity and the wire's second-rounding.
func (tt *ttlTracker) expiredMiss(key []byte) bool {
	if tt == nil {
		return false
	}
	d, ok := tt.deadlines[string(key)]
	if !ok || time.Since(d) < time.Second {
		return false
	}
	delete(tt.deadlines, string(key))
	return true
}

func patterns(mix string, hot uint64, skew float64, loop uint64) []workload.Pattern {
	switch mix {
	case "zipf":
		return workload.MixedZipf(hot, skew)
	case "loop":
		return workload.LoopingScan(loop)
	default:
		log.Fatalf("kvloadgen: unknown -mix %q (zipf|loop)", mix)
		return nil
	}
}

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:11311", "adaptcached address")
		targets = flag.String("targets", "", "comma-separated server addresses; workers spread round-robin and the report breaks ops/errors out per target (overrides -addr)")
		conns   = flag.Int("conns", 4, "concurrent connections (workers)")
		ops     = flag.Uint64("ops", 400000, "total operations across all connections")
		mix     = flag.String("mix", "zipf", "workload mix: zipf|loop")
		hot     = flag.Uint64("hot", 65536, "zipf mix: hot-set size in keys")
		skew    = flag.Float64("skew", 0.8, "zipf mix: skew exponent")
		loop    = flag.Uint64("loop", 12000, "loop mix: loop length in keys")
		vsize   = flag.Int("valuesize", 64, "value payload bytes")
		seed    = flag.Uint64("seed", 1, "base workload seed (each connection offsets it)")
		depth   = flag.Int("pipeline", 32, "requests in flight per connection (1 = strict request/reply)")
		mget    = flag.Int("multiget", 1, "keys per get request (>1 sends multi-key 'get k1 k2 ...'; capped at the protocol limit)")
		procs   = flag.Int("procs", 0, "pin GOMAXPROCS for the generator (0 = leave ambient)")
		minOps  = flag.Uint64("min-ops", 0, "fail (exit 1) if throughput is below this many ops/s")
		maxP99  = flag.Duration("max-p99", 0, "fail (exit 1) if client-observed p99 round-trip latency exceeds this (0 = no gate)")
		direct  = flag.Bool("direct", false, "skip the network: drive an in-process adaptivekv cache")
		ttlDur  = flag.Duration("ttl", 0, "finite TTL for the even half of the keyspace (0 = nothing expires); expired reads are reported")
	)
	flag.Parse()
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}
	if *mget < 1 {
		*mget = 1
	}
	// -multiget beyond the protocol's per-request cap is legal: the client
	// splits the burst with MultiGetChunked, so the knob measures logical
	// batch size rather than wire-request size.

	pats := patterns(*mix, *hot, *skew, *loop)
	if *conns < 1 || *ops < uint64(*conns) {
		log.Fatal("kvloadgen: -ops must be at least -conns")
	}
	shares := splitOps(*ops, *conns)
	payload := make([]byte, *vsize)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}

	var cache *adaptivekv.Cache[string, []byte]
	if *direct {
		cache = adaptivekv.New[string, []byte](adaptivekv.Config{})
	}

	// Target list: -targets spreads workers round-robin over a fleet (or
	// several routers); without it every worker hits -addr.
	tgtList := []string{*addr}
	if *targets != "" {
		tgtList = tgtList[:0]
		for _, a := range strings.Split(*targets, ",") {
			if a = strings.TrimSpace(a); a != "" {
				tgtList = append(tgtList, a)
			}
		}
		if len(tgtList) == 0 {
			log.Fatal("kvloadgen: -targets given but holds no addresses")
		}
	}

	// One shared histogram: Record is atomic and allocation-free, so all
	// workers feed it directly.
	lat := new(metrics.Histogram)
	stats := make([]connStats, *conns)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *conns; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			st := &stats[id]
			ks := workload.NewKeyStream(*seed+uint64(id)*1000003, pats)
			var tt *ttlTracker
			if *ttlDur > 0 {
				tt = &ttlTracker{ttl: *ttlDur, deadlines: make(map[string]time.Time)}
			}
			if *direct {
				runDirect(st, cache, ks, shares[id], payload, lat, tt)
				return
			}
			c, err := kvproto.Dial(tgtList[id%len(tgtList)])
			if err != nil {
				st.err = err
				return
			}
			defer c.Close()
			runClient(st, c, ks, shares[id], payload, *depth, *mget, lat, tt)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Per-target accounting: workers map onto targets round-robin, so
	// target t owns workers t, t+len, t+2*len, ...
	perTgt := make([]connStats, len(tgtList))
	var errCount int
	var total connStats
	for i := range stats {
		ts := &perTgt[i%len(tgtList)]
		if stats[i].err != nil {
			errCount++
			if len(tgtList) == 1 && *targets == "" {
				log.Fatalf("kvloadgen: connection %d: %v", i, stats[i].err)
			}
			log.Printf("kvloadgen: connection %d (%s): %v", i, tgtList[i%len(tgtList)], stats[i].err)
			ts.err = stats[i].err
		}
		ts.gets += stats[i].gets
		ts.hits += stats[i].hits
		ts.sets += stats[i].sets
		total.gets += stats[i].gets
		total.hits += stats[i].hits
		total.sets += stats[i].sets
		total.expiredReads += stats[i].expiredReads
	}
	opsDone := total.gets + total.sets
	opsPerSec := float64(opsDone) / elapsed.Seconds()
	hitRatio := 0.0
	if total.gets > 0 {
		hitRatio = float64(total.hits) / float64(total.gets)
	}

	target := strings.Join(tgtList, ",")
	if *direct {
		target = "direct"
	}
	fmt.Printf("kvloadgen: %s mix=%s conns=%d multiget=%d gomaxprocs=%d\n",
		target, *mix, *conns, *mget, runtime.GOMAXPROCS(0))
	fmt.Printf("  %d ops in %.2fs = %.0f ops/s\n", opsDone, elapsed.Seconds(), opsPerSec)
	fmt.Printf("  gets %d, hit ratio %.4f, sets %d\n", total.gets, hitRatio, total.sets)
	if *ttlDur > 0 {
		fmt.Printf("  ttl %v on even keys: %d expired reads (misses explained by a passed deadline)\n",
			*ttlDur, total.expiredReads)
	}
	if len(tgtList) > 1 {
		for ti, ts := range perTgt {
			status := "ok"
			if ts.err != nil {
				status = "ERR " + ts.err.Error()
			}
			fmt.Printf("  target %s: %d gets, %d sets, %s\n", tgtList[ti], ts.gets, ts.sets, status)
		}
	}
	p99 := lat.Quantile(0.99)
	fmt.Printf("  rtt p50 %v p95 %v p99 %v max %v (%d samples)\n",
		lat.Quantile(0.50), lat.Quantile(0.95), p99, lat.Max(), lat.Count())

	if errCount > 0 {
		fmt.Printf("  FAIL: %d worker connections errored\n", errCount)
		os.Exit(1)
	}
	if *minOps > 0 && opsPerSec < float64(*minOps) {
		fmt.Printf("  FAIL: throughput %.0f ops/s below floor %d\n", opsPerSec, *minOps)
		os.Exit(1)
	}
	if *maxP99 > 0 && p99 > *maxP99 {
		fmt.Printf("  FAIL: p99 round-trip %v above ceiling %v\n", p99, *maxP99)
		os.Exit(1)
	}
}

// splitOps distributes total operations over workers so they sum exactly
// to total: the first total%workers workers take one extra op. The old
// total/workers-per-worker split silently dropped the remainder (-ops
// 400000 -conns 7 ran 399,994 ops), skewing the -min-ops arithmetic.
func splitOps(total uint64, workers int) []uint64 {
	shares := make([]uint64, workers)
	base, extra := total/uint64(workers), total%uint64(workers)
	for i := range shares {
		shares[i] = base
		if uint64(i) < extra {
			shares[i]++
		}
	}
	return shares
}

// runClient is the closed read-through loop, batched: each round sends up
// to depth gets in one write, reads their replies, then sends sets for the
// misses. Pipelining amortizes both sides' syscalls; depth 1 degenerates
// to strict request/reply. mget > 1 packs the round's keys into
// multi-key get requests of that size; every key still counts as one get
// in the tally (and so in the -min-ops gate), since each is one cache
// lookup server-side.
func runClient(st *connStats, c *kvproto.Client, ks *workload.KeyStream, n uint64, payload []byte, depth, mget int, lat *metrics.Histogram, tt *ttlTracker) {
	if depth < 1 {
		depth = 1
	}
	keys := make([][]byte, depth)
	for i := range keys {
		keys[i] = make([]byte, 0, 32)
	}
	miss := make([]bool, depth)
	for done := uint64(0); done < n; {
		b := depth
		if rem := n - done; rem < uint64(b) {
			b = int(rem)
		}
		for i := 0; i < b; i++ {
			keys[i] = strconv.AppendUint(keys[i][:0], ks.Next(), 10)
		}
		misses := 0
		if mget == 1 {
			for i := 0; i < b; i++ {
				c.SendGet(keys[i])
			}
			t0 := time.Now()
			if st.err = c.Flush(); st.err != nil {
				return
			}
			for i := 0; i < b; i++ {
				_, ok, err := c.ReadGetReply()
				if err != nil {
					st.err = err
					return
				}
				miss[i] = !ok
			}
			lat.RecordNS(int64(time.Since(t0)))
		} else {
			// Each mget-sized group goes out as one chunked burst: the
			// client splits past the protocol's per-request cap
			// transparently, so -multiget measures logical batch size.
			for base := 0; base < b; base += mget {
				end := base + mget
				if end > b {
					end = b
				}
				for i := base; i < end; i++ {
					miss[i] = true
				}
				off := base
				t0 := time.Now()
				if err := c.MultiGetChunked(keys[base:end], func(i int, _ uint32, _ []byte) {
					miss[off+i] = false
				}); err != nil {
					st.err = err
					return
				}
				lat.RecordNS(int64(time.Since(t0)))
			}
		}
		for i := 0; i < b; i++ {
			st.gets++
			if miss[i] {
				misses++
				if tt.expiredMiss(keys[i]) {
					st.expiredReads++
				}
			} else {
				st.hits++
			}
		}
		if misses > 0 {
			for i := 0; i < b; i++ {
				if miss[i] {
					exptime := tt.exptimeFor(keys[i])
					c.SendSet(keys[i], 0, exptime, payload)
					tt.noteSet(keys[i], exptime)
				}
			}
			t1 := time.Now()
			if st.err = c.Flush(); st.err != nil {
				return
			}
			for i := 0; i < misses; i++ {
				if st.err = c.ReadSetReply(); st.err != nil {
					return
				}
				st.sets++
			}
			lat.RecordNS(int64(time.Since(t1)))
		}
		done += uint64(b)
	}
}

// runDirect is the same loop against the cache API, for baselining the
// protocol + network overhead away. Latency is recorded per operation
// (there are no batches without a network).
func runDirect(st *connStats, cache *adaptivekv.Cache[string, []byte], ks *workload.KeyStream, n uint64, payload []byte, lat *metrics.Histogram, tt *ttlTracker) {
	key := make([]byte, 0, 32)
	for i := uint64(0); i < n; i++ {
		key = strconv.AppendUint(key[:0], ks.Next(), 10)
		t0 := time.Now()
		st.gets++
		if _, ok := cache.Get(string(key)); ok {
			st.hits++
			lat.RecordNS(int64(time.Since(t0)))
			continue
		}
		if tt.expiredMiss(key) {
			st.expiredReads++
		}
		exptime := tt.exptimeFor(key)
		if exptime > 0 {
			cache.SetTTL(string(key), payload, time.Now().Add(time.Duration(exptime)*time.Second).UnixNano())
			tt.noteSet(key, exptime)
		} else {
			cache.Set(string(key), payload)
		}
		st.sets++
		lat.RecordNS(int64(time.Since(t0)))
	}
}
