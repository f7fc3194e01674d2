// Command kvchaos is the robustness analogue of cmd/benchregress: a
// seeded chaos soak that must pass for the serving stack to be considered
// healthy. It assembles the full topology in one process —
//
//	kvserver ← faultnet.Listener (accept faults)
//	    ↑
//	faultnet.Proxy (resets, stalls, partial I/O, latency)
//	    ↑
//	N kvproto.ReconnectClients + slow-loris aggressors
//
// — and asserts end-to-end invariants while faults fly:
//
//   - Acknowledged-write durability: every value a get returns must be a
//     version the owning client either had acknowledged or has in flight
//     (unacked after an ambiguous failure). A miss is always legal (the
//     adaptive policy may evict), a corrupt or resurrected value never is.
//   - Panic isolation: every injected handler panic is recovered (the
//     process survives and the server's counter matches the injected count).
//   - Accept-loop survival: with accept faults injected, traffic still
//     completes and retries are counted — revert the accept-retry fix and
//     this gate fails.
//   - Reconnect correctness: clients complete their op budget through
//     resets and sheds — remove the client's retry logic and the gate fails.
//   - Slow-loris resistance: a client dribbling bytes forever is reaped by
//     the read deadline instead of holding its slot indefinitely.
//   - TTL honesty: a subset of keys is written with a client-computed
//     absolute expiry deadline. A get answered with a VALUE after that
//     version's deadline (plus a sweep-granularity grace) is a violation
//     — an expired value must read as a miss on every path. Misses stay
//     legal at all times, and when post-deadline misses were observed
//     with zero capacity evictions, the server's expiry counter must
//     have moved (the accounting can't be dead).
//   - CAS atomicity (the ledger): after the soak, N workers increment one
//     shared counter key through gets/cas retry loops, direct against the
//     server so no attempt is ambiguous. The final counter value must
//     equal exactly the number of acknowledged STORED swaps — a lost or
//     double-applied increment is a violation — and the server's cas
//     books (cas histogram, CasStored) must reconcile against it.
//   - Clean teardown: after the soak, a fresh client gets normal service,
//     the adaptive cache still reports a sane hit ratio, and shutdown
//     leaks no goroutines.
//
// Exit status 0 means every invariant held; 1 reports the violations.
//
//	kvchaos -seed 7 -clients 6 -ops 5000
//	kvchaos -seed 7 -reset-rate 0.01 -panic-rate 0.002 -accept-error-rate 0.4
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/adaptivekv"
	"repro/internal/chaosledger"
	"repro/internal/faultnet"
	"repro/internal/fleet"
	"repro/internal/kvproto"
	"repro/internal/kvserver"
	"repro/internal/metrics"
)

// chaosClient drives one connection's op mix through the fault proxy and
// checks the durability invariant. Keys are namespaced per client so each
// key has exactly one writer and the version window argument is sound.
type chaosClient struct {
	id    int
	rc    *kvproto.ReconnectClient
	rng   chaosledger.Rand
	keys  []chaosledger.Key
	names [][]byte
	vsize int
	ttl   time.Duration // nonzero: every 4th key is written with this TTL

	ops, gets, hits, sets, ackedSets, unackedSets uint64
	expiredMisses                                 uint64 // post-deadline reads correctly answered as misses
	violations                                    []string
	fatal                                         error
}

func newChaosClient(id int, addr string, seed uint64, nkeys, vsize int, ttl time.Duration, ctrs *kvproto.ReconnectCounters) *chaosClient {
	cc := &chaosClient{
		id: id,
		rc: kvproto.NewReconnect(addr, kvproto.ReconnectConfig{
			DialTimeout:  2 * time.Second,
			ReadTimeout:  5 * time.Second,
			WriteTimeout: 5 * time.Second,
			MaxAttempts:  12,
			BaseBackoff:  2 * time.Millisecond,
			MaxBackoff:   250 * time.Millisecond,
			Seed:         seed,
			Counters:     ctrs,
		}),
		rng:   chaosledger.NewRand(seed),
		keys:  make([]chaosledger.Key, nkeys),
		names: make([][]byte, nkeys),
		vsize: vsize,
		ttl:   ttl,
	}
	for j := range cc.keys {
		cc.keys[j] = chaosledger.NewKey()
		cc.names[j] = []byte(fmt.Sprintf("c%dk%d", id, j))
	}
	return cc
}

// ttlKey reports whether key j carries a TTL on every write.
func (cc *chaosClient) ttlKey(j int) bool { return cc.ttl > 0 && j%4 == 0 }

func (cc *chaosClient) violate(format string, args ...any) {
	cc.violations = append(cc.violations, fmt.Sprintf("client %d: %s", cc.id, fmt.Sprintf(format, args...)))
}

func (cc *chaosClient) run(nops uint64) {
	for i := uint64(0); i < nops && cc.fatal == nil && len(cc.violations) < 20; i++ {
		r := cc.rng.Next()
		j := int((r >> 8) % uint64(len(cc.keys)))
		if r%5 == 0 {
			cc.doSet(j)
		} else {
			cc.doGet(j)
		}
		cc.ops++
	}
}

func (cc *chaosClient) doSet(j int) {
	ks := &cc.keys[j]
	ver := ks.Begin()
	var exptime int64
	if cc.ttlKey(j) {
		exptime = ks.Expire(ver, cc.ttl)
	}
	err := cc.rc.Set(cc.names[j], 0, exptime, chaosledger.EncodeValue(ver, cc.names[j], cc.vsize))
	cc.sets++
	switch {
	case err == nil:
		ks.Acked = ver
		cc.ackedSets++
	case errors.Is(err, kvproto.ErrUnacked):
		// Ambiguous: the write may land at any point until the dead
		// connection's handler unwinds. Widen the valid window.
		ks.Pending[ver] = struct{}{}
		cc.unackedSets++
	default:
		cc.fatal = fmt.Errorf("client %d: set %s: %w", cc.id, cc.names[j], err)
	}
}

func (cc *chaosClient) doGet(j int) {
	ks := &cc.keys[j]
	sent := time.Now() // taken BEFORE the get: the server processed it no earlier
	v, ok, err := cc.rc.Get(cc.names[j])
	if err != nil {
		cc.fatal = fmt.Errorf("client %d: get %s: %w", cc.id, cc.names[j], err)
		return
	}
	cc.gets++
	if !ok {
		// Miss: always legal. Note when it is the expected outcome of a
		// read past the acked version's deadline — those misses are what
		// the expiry-accounting cross-check below feeds on.
		if ks.Expired(ks.Acked, sent) {
			cc.expiredMisses++
		}
		return
	}
	cc.hits++
	ver, err := ks.Check(cc.names[j], v, sent)
	if err == nil {
		err = ks.CheckWindow(ver)
	}
	if err != nil {
		cc.violate("get %s %v", cc.names[j], err)
	}
}

// runCasLedger is the end-to-end read-modify-write atomicity gate:
// workers concurrently increment one shared counter key through gets/cas
// retry loops, connected directly to the server (not through the fault
// proxy — a cas here is never ambiguous, so strict equality must hold).
// Every increment retries on EXISTS until its swap is acknowledged
// STORED; the final counter value must equal exactly the acknowledged
// swap count. NOT_FOUND on the resident counter is a violation.
func runCasLedger(addr string, workers, increments int) (stored uint64, failures []string) {
	key := []byte("kvchaos-cas-counter")
	dial := func() (*kvproto.Client, error) {
		return kvproto.DialTimeout(addr, 2*time.Second, 5*time.Second, 5*time.Second)
	}
	c, err := dial()
	if err != nil {
		return 0, []string{fmt.Sprintf("cas ledger: dial: %v", err)}
	}
	if err := c.Set(key, 0, 0, []byte("0")); err != nil {
		c.Close()
		return 0, []string{fmt.Sprintf("cas ledger: seed set: %v", err)}
	}
	c.Close()

	var acked atomic.Uint64
	var mu sync.Mutex
	var errs []string
	fail := func(format string, args ...any) {
		mu.Lock()
		errs = append(errs, "cas ledger: "+fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := dial()
			if err != nil {
				fail("worker %d: dial: %v", w, err)
				return
			}
			defer c.Close()
			for i := 0; i < increments; i++ {
				for attempt := 0; ; attempt++ {
					if attempt > 100000 {
						fail("worker %d: increment %d starved after %d conflicts", w, i, attempt)
						return
					}
					v, _, id, ok, err := c.Gets(key)
					if err != nil {
						fail("worker %d: gets: %v", w, err)
						return
					}
					if !ok {
						fail("worker %d: counter key vanished (gets answered miss)", w)
						return
					}
					n, perr := strconv.ParseUint(string(v), 10, 64)
					if perr != nil {
						fail("worker %d: corrupt counter value %q", w, v)
						return
					}
					st, err := c.Cas(key, 0, 0, id, []byte(strconv.FormatUint(n+1, 10)))
					if err != nil {
						fail("worker %d: cas: %v", w, err)
						return
					}
					if st == kvproto.CasStored {
						acked.Add(1)
						break
					}
					if st != kvproto.CasExists {
						fail("worker %d: cas on the resident counter answered %v", w, st)
						return
					}
					// EXISTS: another worker won the race — re-read, retry.
				}
			}
		}(w)
	}
	wg.Wait()

	c, err = dial()
	if err != nil {
		return acked.Load(), append(errs, fmt.Sprintf("cas ledger: final read dial: %v", err))
	}
	v, _, _, ok, err := c.Gets(key)
	c.Close()
	if err != nil || !ok {
		return acked.Load(), append(errs, fmt.Sprintf("cas ledger: final read ok=%v err=%v", ok, err))
	}
	final, perr := strconv.ParseUint(string(v), 10, 64)
	if perr != nil {
		return acked.Load(), append(errs, fmt.Sprintf("cas ledger: corrupt final value %q", v))
	}
	if final != acked.Load() {
		errs = append(errs, fmt.Sprintf(
			"cas ledger: counter ended at %d but %d swaps were acknowledged STORED — increments lost or double-applied",
			final, acked.Load()))
	}
	if want := uint64(workers * increments); acked.Load() != want {
		errs = append(errs, fmt.Sprintf("cas ledger: %d swaps acknowledged, want %d (every increment loops until STORED)",
			acked.Load(), want))
	}
	return acked.Load(), errs
}

// runLoris dribbles a never-terminated command at the server one byte at
// a time and waits to be reaped: a hardened server cuts the connection
// when its read deadline fires mid-line. Returns nil once the disconnect
// is observed, an error if the connection survives the whole patience
// window (the slot would be held hostage indefinitely).
func runLoris(addr string, patience time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return fmt.Errorf("slow-loris dial: %w", err)
	}
	defer conn.Close()
	deadline := time.Now().Add(patience)
	buf := make([]byte, 64)
	for time.Now().Before(deadline) {
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		if _, err := conn.Write([]byte("k")); err != nil {
			return nil // write refused: the server cut us off
		}
		conn.SetReadDeadline(time.Now().Add(60 * time.Millisecond))
		if _, err := conn.Read(buf); err != nil {
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				return nil // EOF or reset: reaped
			}
		}
	}
	return fmt.Errorf("slow-loris connection survived %v of dribbling", patience)
}

func main() {
	var (
		seed    = flag.Uint64("seed", 1, "fault and workload seed")
		clients = flag.Int("clients", 6, "concurrent verifying clients")
		ops     = flag.Uint64("ops", 5000, "operations per client")
		nkeys   = flag.Int("keys", 512, "keyspace per client (single writer per key)")
		vsize   = flag.Int("value-size", 48, "encoded value size in bytes")
		loris   = flag.Int("slowloris", 2, "slow-loris aggressor connections")

		resetRate  = flag.Float64("reset-rate", 0.002, "proxy: per-I/O connection reset probability")
		stallRate  = flag.Float64("stall-rate", 0.002, "proxy: per-write byte-stall probability")
		stall      = flag.Duration("stall", 20*time.Millisecond, "proxy: stall length")
		partial    = flag.Float64("partial-rate", 0.05, "proxy: partial read/write probability")
		delayRate  = flag.Float64("delay-rate", 0.01, "proxy: added-latency probability")
		delay      = flag.Duration("delay", time.Millisecond, "proxy: injected latency")
		acceptRate = flag.Float64("accept-error-rate", 0.25, "server listener: transient accept-error probability")
		panicRate  = flag.Float64("panic-rate", 0.001, "server: per-request injected handler panic probability")

		ttl = flag.Duration("ttl", time.Second, "TTL written on every 4th key per client (0 disables the TTL invariant)")

		casWorkers    = flag.Int("cas-workers", 4, "post-soak cas ledger workers incrementing one shared counter (0 disables)")
		casIncrements = flag.Int("cas-increments", 200, "increments per cas ledger worker")

		readTO    = flag.Duration("read-timeout", 500*time.Millisecond, "server read deadline (reaps slow loris)")
		maxConns  = flag.Int("max-conns", 0, "server connection bound (0 = clients+slowloris+3)")
		minHit    = flag.Float64("min-hit-ratio", 0.2, "fail if the server-side hit ratio ends below this")
		graceLeak = flag.Duration("leak-grace", 5*time.Second, "how long goroutines get to drain after shutdown")
	)
	flag.Parse()

	// The connection bound must admit the run's planned load: soak clients,
	// loris aggressors, the post-soak cas ledger workers (their connections
	// overlap the soak clients' only briefly, but the bound has to cover
	// the worst case), and slack for the probes.
	if *maxConns == 0 {
		*maxConns = *clients + *loris + *casWorkers + 3
	}
	baseline := runtime.NumGoroutine()
	fmt.Printf("kvchaos: seed %d, %d clients x %d ops, %d keys/client, %d loris\n",
		*seed, *clients, *ops, *nkeys, *loris)

	// One node via the shared fleet harness: kvserver with seeded panic
	// injection, behind a fault-wrapped listener, behind a fault proxy.
	var hookCalls, hookPanics atomic.Uint64
	hook := func(req *kvproto.Request) {
		if *panicRate <= 0 || (req.Op != kvproto.OpGet && req.Op != kvproto.OpSet) {
			return
		}
		n := hookCalls.Add(1)
		if float64(chaosledger.Splitmix64(*seed^n)>>11)/(1<<53) < *panicRate {
			hookPanics.Add(1)
			panic(fmt.Sprintf("kvchaos: injected handler panic #%d", hookPanics.Load()))
		}
	}
	node, err := fleet.StartNode(fleet.NodeConfig{
		Server: kvserver.Config{
			Cache:        adaptivekv.Config{Shards: 4, Sets: 256, Ways: 8},
			ReadTimeout:  *readTO,
			WriteTimeout: 2 * time.Second,
			MaxConns:     *maxConns,
			FaultHook:    hook,
		},
		ListenFaults: &faultnet.Config{Seed: *seed, AcceptErrorRate: *acceptRate},
		ProxyFaults: &faultnet.Config{
			Seed:        *seed + 1,
			ResetRate:   *resetRate,
			StallRate:   *stallRate,
			Stall:       *stall,
			PartialRate: *partial,
			DelayRate:   *delayRate,
			Delay:       *delay,
		},
	})
	if err != nil {
		fmt.Printf("kvchaos: node: %v\n", err)
		os.Exit(1)
	}
	srv := node.Server()
	serverAddr := node.ServerAddr()

	// Soak: verifying clients through the proxy, loris against the server.
	// All clients (and the post-soak probe) share one ReconnectCounters so
	// the fleet-aggregate can be cross-checked against per-client tallies.
	var redials, retries, unackedOps, exhausted metrics.Counter
	rctrs := &kvproto.ReconnectCounters{
		Redials: &redials, Retries: &retries,
		Unacked: &unackedOps, Exhausted: &exhausted,
	}
	ccs := make([]*chaosClient, *clients)
	var wg sync.WaitGroup
	for i := range ccs {
		ccs[i] = newChaosClient(i, node.Addr(), chaosledger.Splitmix64(*seed+uint64(i)*7919), *nkeys, *vsize, *ttl, rctrs)
		wg.Add(1)
		go func(cc *chaosClient) {
			defer wg.Done()
			cc.run(*ops)
			cc.rc.Close()
		}(ccs[i])
	}
	lorisErrs := make(chan error, *loris)
	for i := 0; i < *loris; i++ {
		go func() {
			lorisErrs <- runLoris(serverAddr, *readTO*20+10*time.Second)
		}()
	}
	start := time.Now()
	wg.Wait()
	soak := time.Since(start)

	// Each loris resolves on its own: reaped (nil) within ~readTO, or an
	// error after its patience window. Collect before judging.
	var failures []string
	for i := 0; i < *loris; i++ {
		if err := <-lorisErrs; err != nil {
			failures = append(failures, fmt.Sprintf("slow-loris: %v", err))
		}
	}

	// Post-soak liveness: a clean client straight at the server must get
	// ordinary service, and an acknowledged write must read back.
	probeKey, probeVal := []byte("kvchaos-probe"), []byte("alive")
	probe := kvproto.NewReconnect(serverAddr, kvproto.ReconnectConfig{Seed: *seed + 99, Counters: rctrs})
	if err := probe.Set(probeKey, 0, 0, probeVal); err != nil {
		failures = append(failures, fmt.Sprintf("post-soak liveness: set: %v", err))
	} else if v, ok, err := probe.Get(probeKey); err != nil || !ok || !bytes.Equal(v, probeVal) {
		failures = append(failures, fmt.Sprintf("post-soak liveness: get ok=%v err=%v", ok, err))
	}

	// Deterministic expiry drill: the soak can outrun its own TTLs on a
	// fast machine, so prove the end-to-end contract directly — a 1s-TTL
	// set must be readable now, unreadable within the acceptance window,
	// and counted by the server's expiry books.
	if *ttl > 0 {
		ttlProbeKey := []byte("kvchaos-ttl-probe")
		expSec := time.Now().Add(time.Second).Unix() + 1
		if err := probe.Set(ttlProbeKey, 0, expSec, []byte("dying")); err != nil {
			failures = append(failures, fmt.Sprintf("ttl probe: set: %v", err))
		} else {
			if v, ok, err := probe.Get(ttlProbeKey); err != nil || !ok || !bytes.Equal(v, []byte("dying")) {
				failures = append(failures, fmt.Sprintf("ttl probe: pre-deadline get ok=%v err=%v", ok, err))
			}
			patience := time.Now().Add(5 * time.Second)
			expired := false
			for time.Now().Before(patience) {
				if _, ok, err := probe.Get(ttlProbeKey); err == nil && !ok {
					expired = true
					break
				}
				time.Sleep(50 * time.Millisecond)
			}
			if !expired {
				failures = append(failures, "ttl probe: value still readable 4s past a 1s TTL")
			} else {
				// The miss may be observed lazily before the reclaim is
				// counted; give the sweeper one full shard cycle.
				counted := false
				for time.Now().Before(patience) {
					if srv.Cache().Stats().Expired > 0 {
						counted = true
						break
					}
					time.Sleep(50 * time.Millisecond)
				}
				if !counted {
					failures = append(failures, "ttl probe: value expired but kv_expired_total never moved")
				}
			}
		}
	}
	probe.Close()

	// CAS ledger: concurrent increments of one shared counter via gets/cas
	// retry loops, direct at the server so no swap is ambiguous. It runs
	// after the soak (whose clients issue no cas), so the ledger is this
	// run's only cas traffic and the server's cas books must reconcile
	// against it exactly.
	var casStored uint64
	if *casWorkers > 0 {
		var ledgerFails []string
		casStored, ledgerFails = runCasLedger(serverAddr, *casWorkers, *casIncrements)
		failures = append(failures, ledgerFails...)
	}

	agg := srv.Cache().Stats()
	counters := srv.Counters()
	lstats := node.ListenStats()
	pstats := node.ProxyStats()

	// Teardown must leak nothing.
	node.Close()
	leakDeadline := time.Now().Add(*graceLeak)
	leaked := -1
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			leaked = 0
			break
		}
		if time.Now().After(leakDeadline) {
			leaked = runtime.NumGoroutine() - baseline
			break
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Aggregate client results and verdicts. The reconnect tallies include
	// the probe: it shares rctrs, so the fleet sums must too.
	var tOps, tGets, tHits, tAcked, tUnacked, tExpiredMisses uint64
	tRedials, tRetries, tUnackedOps, tExhausted := probe.Redials, probe.Retries, probe.Unacked, probe.Exhausted
	for _, cc := range ccs {
		tOps += cc.ops
		tGets += cc.gets
		tHits += cc.hits
		tAcked += cc.ackedSets
		tUnacked += cc.unackedSets
		tExpiredMisses += cc.expiredMisses
		tRedials += cc.rc.Redials
		tRetries += cc.rc.Retries
		tUnackedOps += cc.rc.Unacked
		tExhausted += cc.rc.Exhausted
		if cc.fatal != nil {
			failures = append(failures, fmt.Sprintf("client gave up: %v", cc.fatal))
		}
		failures = append(failures, cc.violations...)
	}

	fmt.Printf("  soak: %d ops in %.2fs (%.0f ops/s), %d gets, %d acked sets, %d unacked sets\n",
		tOps, soak.Seconds(), float64(tOps)/soak.Seconds(), tGets, tAcked, tUnacked)
	fmt.Printf("  faults: %d accept errors, %d resets, %d partial reads, %d partial writes, %d stalls, %d delays\n",
		lstats.AcceptErrors, pstats.Resets+lstats.Resets, pstats.PartialReads+lstats.PartialReads,
		pstats.PartialWrites+lstats.PartialWrites, pstats.Stalls+lstats.Stalls, pstats.Delays+lstats.Delays)
	fmt.Printf("  server: %d accept retries, %d panics recovered (%d injected), %d conns rejected, %d client errors\n",
		counters.AcceptRetries, counters.PanicsRecovered, hookPanics.Load(),
		counters.ConnsRejected, counters.ClientErrors)
	fmt.Printf("  cache: hit ratio %.4f, %d evictions, %d policy switches\n",
		agg.HitRatio(), agg.Evictions, agg.PolicySwitches)
	fmt.Printf("  ttl: %d post-deadline reads answered as misses; server expired %d (%d swept, %d sweep passes)\n",
		tExpiredMisses, agg.Expired, agg.SweepRemoved, srv.Cache().SweepPasses())
	if *casWorkers > 0 {
		fmt.Printf("  cas ledger: %d workers x %d increments, %d swaps acknowledged STORED\n",
			*casWorkers, *casIncrements, casStored)
	}

	if counters.PanicsRecovered != hookPanics.Load() {
		failures = append(failures, fmt.Sprintf("panic accounting: %d injected, %d recovered",
			hookPanics.Load(), counters.PanicsRecovered))
	}
	if lstats.AcceptErrors > 0 && counters.AcceptRetries == 0 {
		failures = append(failures, "accept faults were injected but the server retried none (retry path dead?)")
	}
	if agg.HitRatio() < *minHit {
		failures = append(failures, fmt.Sprintf("adaptivity: hit ratio %.4f below floor %.2f under fault-perturbed traffic",
			agg.HitRatio(), *minHit))
	}
	if leaked != 0 {
		failures = append(failures, fmt.Sprintf("goroutine leak: %d above baseline after shutdown", leaked))
	}
	// Expiry accounting: clients observed reads past an acked deadline
	// coming back as misses. With zero capacity evictions, the only legal
	// way those entries vanished is the expiry path, which counts.
	if *ttl > 0 && tExpiredMisses > 0 && agg.Evictions == 0 && agg.Expired == 0 {
		failures = append(failures, fmt.Sprintf(
			"TTL accounting dead: %d post-deadline misses observed, zero evictions, yet kv_expired_total is 0",
			tExpiredMisses))
	}

	// Metric invariants, checked only after shutdown drains every handler:
	// the observability layer must agree exactly with the engine and with
	// the clients' own books. Unacked writes may land any time before their
	// dead connection's handler unwinds, so a pre-quiescence comparison
	// would race.
	final := srv.Cache().Stats()
	getLat, setLat, delLat := srv.OpLatency("get"), srv.OpLatency("set"), srv.OpLatency("delete")
	getsLat, casLat := srv.OpLatency("gets"), srv.OpLatency("cas")
	nc := srv.NetCounters()
	fmt.Printf("  metrics: %d/%d/%d get/set/delete dispatches recorded, get p99 %v, %d B in, %d B out, %d redials, %d retries\n",
		getLat.Count, setLat.Count, delLat.Count, getLat.P99, nc.BytesIn, nc.BytesOut, redials.Load(), retries.Load())
	// get and gets both resolve through the cache's get path (gets records
	// one histogram sample per key looked up), so together they must cover
	// the engine's Gets tally exactly.
	if getLat.Count+getsLat.Count != final.Gets {
		failures = append(failures, fmt.Sprintf("metric drift: get+gets histograms recorded %d ops, cache served %d",
			getLat.Count+getsLat.Count, final.Gets))
	}
	if casLat.Count != final.CasOps() {
		failures = append(failures, fmt.Sprintf("metric drift: cas histogram recorded %d ops, cache saw %d",
			casLat.Count, final.CasOps()))
	}
	// The ledger is the run's only cas source, so its acked swaps are the
	// engine's entire CasStored book.
	if *casWorkers > 0 && casStored != final.CasStored {
		failures = append(failures, fmt.Sprintf("cas accounting: ledger acked %d swaps, cache counted %d CasStored",
			casStored, final.CasStored))
	}
	// Every dispatched set under the admission bound reaches the cache;
	// kvchaos values are far below it, so the counts must match exactly.
	if setLat.Count != final.Stores {
		failures = append(failures, fmt.Sprintf("metric drift: set histogram recorded %d ops, cache stored %d",
			setLat.Count, final.Stores))
	}
	if delLat.Count != final.Deletes {
		failures = append(failures, fmt.Sprintf("metric drift: delete histogram recorded %d ops, cache saw %d",
			delLat.Count, final.Deletes))
	}
	if active := srv.ConnsActive(); active != 0 {
		failures = append(failures, fmt.Sprintf("conns_active gauge is %d after shutdown (want 0, never negative)", active))
	}
	if nc.ConnsOpened != nc.ConnsClosed {
		failures = append(failures, fmt.Sprintf("connection books: %d opened, %d closed after shutdown",
			nc.ConnsOpened, nc.ConnsClosed))
	}
	if nc.BytesIn == 0 || nc.BytesOut == 0 {
		failures = append(failures, fmt.Sprintf("byte meters dead under real traffic: %d in, %d out", nc.BytesIn, nc.BytesOut))
	}
	if redials.Load() != tRedials || retries.Load() != tRetries ||
		unackedOps.Load() != tUnackedOps || exhausted.Load() != tExhausted {
		failures = append(failures, fmt.Sprintf(
			"shared reconnect counters diverge from client tallies: redials %d/%d, retries %d/%d, unacked %d/%d, exhausted %d/%d",
			redials.Load(), tRedials, retries.Load(), tRetries,
			unackedOps.Load(), tUnackedOps, exhausted.Load(), tExhausted))
	}
	if tUnackedOps != tUnacked {
		failures = append(failures, fmt.Sprintf("unacked accounting: clients abandoned %d sets, reconnect layer counted %d",
			tUnacked, tUnackedOps))
	}
	var expo bytes.Buffer
	if err := srv.WriteMetrics(&expo); err != nil {
		failures = append(failures, fmt.Sprintf("metrics exposition: %v", err))
	} else if err := metrics.Lint(expo.Bytes()); err != nil {
		failures = append(failures, fmt.Sprintf("metrics exposition invalid: %v", err))
	}

	if len(failures) > 0 {
		fmt.Printf("kvchaos: FAIL (%d violations)\n", len(failures))
		for _, f := range failures {
			fmt.Printf("  FAIL: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("kvchaos: PASS — zero escaped panics, zero lost acknowledged writes, zero goroutine leaks")
}
