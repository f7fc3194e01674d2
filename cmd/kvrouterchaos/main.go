// Command kvrouterchaos is the partition-chaos gate for the routing
// tier: cmd/kvchaos hardens one node, this drill hardens the fleet view.
// It assembles the full routed topology in one process —
//
//	3 × kvserver ← faultnet.Listener (accept faults)
//	        ↑
//	kvcluster.Cluster (ring, pools, probers) + kvcluster.Router
//	        ↑
//	N kvproto.ReconnectClients speaking plain kvproto to the router
//
// — then kills one node mid-soak and later restarts it, asserting the
// routing tier's failure contract end to end:
//
//   - Ejection fires: after the kill, the dead node is ejected (the
//     kvcluster_node_ejections_total tally moves) and its keyspace fails
//     fast with SERVER_ERROR instead of queueing behind dial timeouts.
//   - Surviving keyspace stays available: during the outage, every
//     operation whose ring owner is a live node must succeed — a single
//     refusal is a routing bug, not chaos noise.
//   - Reintegration: once the node returns, probing brings it back and
//     the whole keyspace serves again (the restarted cache is empty;
//     misses are always legal, resurrections never are).
//   - No ambiguous-write replay: every value a get returns must be a
//     version its single-writer client either had acknowledged or holds
//     as unacked-pending. A version whose write failed CLEANLY
//     ("SERVER_ERROR node down" / "backend failure" — the never-sent and
//     provably-unprocessed cases) appearing in a reply would mean some
//     layer replayed a write it reported as not applied.
//   - Unacked tallies reconcile exactly: ambiguous writes counted by the
//     backend clients == forwarded by the router == observed by clients
//     as "SERVER_ERROR unacked". Every ambiguity is surfaced, once.
//   - TTL honesty through the routing tier: a subset of keys is written
//     with a client-computed absolute expiry deadline. Any VALUE
//     returned after that version's deadline (plus a sweep-granularity
//     grace) is a violation on every path — direct, scattered, and
//     failover reads alike. A diverged replica may serve an OLDER acked
//     version, but never an expired one: the cluster propagates the
//     same absolute deadline to every owner.
//   - Clean teardown: router drain, cluster close, fleet close, and no
//     leaked goroutines.
//
// With -replicas 2 the drill asserts the replicated contract instead:
// the outage is a network partition (the node's cache stays hot — the
// hard case), and node loss may cost hit ratio but never availability:
//
//   - Zero failed ops: every operation across the whole keyspace must
//     eventually succeed through the outage — reads fail over to the
//     replica (kvcluster_failover_reads_total moves), writes ack on the
//     first live owner; clean write failures in the pre-ejection window
//     are retried with bounded patience and a final failure is a
//     violation, not chaos noise.
//   - Replica divergence is counted: writes during the outage skip the
//     dead replica and kvcluster_replica_write_failures_total moves.
//   - Flush-on-reintegrate: the healed node still holds its pre-outage
//     versions; before the prober marks it up it must be flushed
//     (kvcluster_reintegration_flushes_total and the node's own flush
//     tally move), so recovered-phase reads can miss but never serve a
//     version older than the client's acknowledged history. Running
//     with -no-reintegrate-flush reproduces the stale-read regression
//     and must make the gate fail.
//   - Unacked tallies still reconcile exactly, with best-effort replica
//     ambiguity (never surfaced to clients) accounted separately:
//     backend == forwarded + replica-unacked, forwarded == seen.
//
// Exit status 0 means every invariant held; 1 reports the violations.
//
//	kvrouterchaos -seed 1
//	kvrouterchaos -seed 7 -clients 3 -ops 800
//	kvrouterchaos -seed 5 -replicas 2
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/adaptivekv"
	"repro/internal/chaosledger"
	"repro/internal/faultnet"
	"repro/internal/fleet"
	"repro/internal/kvcluster"
	"repro/internal/kvproto"
	"repro/internal/kvserver"
)

// Soak phases. Expectations differ per phase: healthy and recovered
// phases tolerate no failures at all; the outage phase tolerates them
// only for keys the dead node owns.
const (
	phaseHealthy = iota
	phaseOutage
	phaseRecovered
)

var phaseNames = [...]string{"healthy", "outage", "recovered"}

// keyState is one key's write history on its single-writer client: the
// shared ledger core plus the routing tier's two extra version sets.
type keyState struct {
	chaosledger.Key
	failed    map[uint64]struct{} // cleanly-failed versions that must never land
	everAcked map[uint64]struct{} // every version ever acknowledged (replicated-mode window)
}

// routedClient drives one connection's op mix through the router and
// checks the version-window invariant. Keys are namespaced per client so
// each key has exactly one writer; owners are precomputed from the ring
// so the client knows which failures the partition excuses.
type routedClient struct {
	id     int
	rc     *kvproto.ReconnectClient
	rng    chaosledger.Rand
	keys   []keyState
	names  [][]byte
	owners []int // ring owner per key, static for the drill
	vsize  int

	phase  int
	killed int // node index down during phaseOutage, -1 otherwise

	// replicated switches the client onto the R=2 contract: failures are
	// never excused by a dead owner (zero failed ops), clean write
	// failures are retried until the routing tier converges on the
	// replica, and outage-phase reads of dead-primary keys accept any
	// ever-acked version (a diverged replica legally serves an older
	// acknowledged write — never a failed or unknown one).
	replicated    bool
	retryPatience time.Duration
	ttl           time.Duration // nonzero: every 4th key is written with this TTL

	ops, gets, hits, sets, ackedSets uint64
	unackedSeen                      uint64 // "SERVER_ERROR unacked" replies observed
	cleanFails, deadOps              uint64
	violations                       []string
	fatal                            error
}

func newRoutedClient(id int, addr string, seed uint64, nkeys, vsize int, cl *kvcluster.Cluster) *routedClient {
	c := &routedClient{
		id: id,
		rc: kvproto.NewReconnect(addr, kvproto.ReconnectConfig{
			DialTimeout:  2 * time.Second,
			ReadTimeout:  5 * time.Second,
			WriteTimeout: 5 * time.Second,
			MaxAttempts:  8,
			BaseBackoff:  2 * time.Millisecond,
			MaxBackoff:   100 * time.Millisecond,
			Seed:         seed,
		}),
		rng:    chaosledger.NewRand(seed),
		keys:   make([]keyState, nkeys),
		names:  make([][]byte, nkeys),
		owners: make([]int, nkeys),
		vsize:  vsize,
		killed: -1,
	}
	for j := range c.keys {
		c.keys[j] = keyState{
			Key:       chaosledger.NewKey(),
			failed:    make(map[uint64]struct{}),
			everAcked: make(map[uint64]struct{}),
		}
		c.names[j] = []byte(fmt.Sprintf("r%dk%d", id, j))
		c.owners[j] = cl.Ring().OwnerIndex(c.names[j])
	}
	return c
}

// ttlKey reports whether key j carries a TTL on every write.
func (c *routedClient) ttlKey(j int) bool { return c.ttl > 0 && j%4 == 0 }

func (c *routedClient) violate(format string, args ...any) {
	c.violations = append(c.violations, fmt.Sprintf("client %d [%s]: %s",
		c.id, phaseNames[c.phase], fmt.Sprintf(format, args...)))
}

// deadOwner reports whether key j's ring owner is the killed node in the
// current phase — in single-replica mode, the only condition under which
// a failure is legal. Replicated mode excuses nothing: the replica must
// absorb the outage.
func (c *routedClient) deadOwner(j int) bool {
	return !c.replicated && c.phase == phaseOutage && c.owners[j] == c.killed
}

// failoverWindow reports whether key j's reads are currently served by
// its replica: primary down, outage phase, replicated mode. Inside the
// window a read may legally return an older ever-acknowledged version —
// replica divergence — but still never a failed or never-acked one.
func (c *routedClient) failoverWindow(j int) bool {
	return c.replicated && c.phase == phaseOutage && c.owners[j] == c.killed
}

// unackedReply reports an ambiguous-write signal: either the router said
// "SERVER_ERROR unacked" (backend ambiguity, forwarded) or the client's
// own connection to the router died mid-write (client-side ambiguity).
func unackedReply(err error) bool {
	if errors.Is(err, kvproto.ErrUnacked) {
		return true
	}
	var se *kvproto.ServerError
	return errors.As(err, &se) && se.Msg == "unacked"
}

func (c *routedClient) run(nops uint64) {
	for i := uint64(0); i < nops && c.fatal == nil && len(c.violations) < 20; i++ {
		r := c.rng.Next()
		j := int((r >> 8) % uint64(len(c.keys)))
		switch {
		case r%13 == 0:
			c.doMultiGet(j)
		case r%5 == 0:
			c.doSet(j)
		default:
			c.doGet(j)
		}
		c.ops++
	}
}

func (c *routedClient) doSet(j int) {
	ks := &c.keys[j]
	ver := ks.Begin()
	val := chaosledger.EncodeValue(ver, c.names[j], c.vsize)
	var exptime int64
	if c.ttlKey(j) {
		// Both owners of a replicated key get the same absolute instant.
		exptime = ks.Expire(ver, c.ttl)
	}
	err := c.rc.Set(c.names[j], 0, exptime, val)
	c.sets++
	if err != nil && c.replicated && !unackedReply(err) {
		// Replicated mode promises zero failed ops, but the sync-owner
		// handoff to the replica needs the ejection to land first. A
		// clean failure is provably unapplied, so retrying the same
		// version is safe; only exhausting the patience window is a
		// violation. The replayed exptime is the SAME absolute instant.
		deadline := time.Now().Add(c.retryPatience)
		for err != nil && !unackedReply(err) && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
			err = c.rc.Set(c.names[j], 0, exptime, val)
		}
	}
	switch {
	case err == nil:
		ks.Acked = ver
		ks.everAcked[ver] = struct{}{}
		c.ackedSets++
		if c.deadOwner(j) {
			c.violate("set %s acked while its owner node %d is dead", c.names[j], c.killed)
		}
	case unackedReply(err):
		// Ambiguous: the write may have been applied. Widen the window.
		ks.Pending[ver] = struct{}{}
		c.unackedSeen++
	default:
		// Clean failure: every layer reports this version was never
		// applied ("node down" fails fast before send; "backend
		// failure" exhausts only provably-unprocessed attempts). It
		// must never be read back.
		ks.failed[ver] = struct{}{}
		c.cleanFails++
		if c.deadOwner(j) {
			c.deadOps++
			return
		}
		c.violate("set %s (owner node %d, alive) failed: %v", c.names[j], c.owners[j], err)
	}
}

// checkHit verifies one returned value against key j's version window.
// sent is the time the read was issued — the serving node processed it
// no earlier, so a deadline already past at send time makes any VALUE
// reply a TTL violation.
func (c *routedClient) checkHit(j int, v []byte, sent time.Time) {
	ks := &c.keys[j]
	// TTL honesty (inside Check) outranks every version-window allowance
	// below: an expired version must read as a miss even from a diverged
	// replica inside the failover window.
	ver, err := ks.Check(c.names[j], v, sent)
	if err != nil {
		c.violate("get %s %v", c.names[j], err)
		return
	}
	if _, wasCleanFail := ks.failed[ver]; wasCleanFail {
		c.violate("get %s returned version %d whose write failed cleanly — a write reported as not applied was replayed",
			c.names[j], ver)
		return
	}
	err = ks.CheckWindow(ver)
	if err == nil {
		return
	}
	if c.failoverWindow(j) {
		// The replica may have missed best-effort writes while the
		// primary was still acking them: an older acknowledged version
		// is legal divergence inside the failover window. The failed-set
		// check above stays absolute, and once the window closes
		// (reintegration flushed the stale copy) the strict rule is back.
		if _, was := ks.everAcked[ver]; was {
			return
		}
	}
	c.violate("get %s %v", c.names[j], err)
}

func (c *routedClient) doGet(j int) {
	sent := time.Now()
	v, ok, err := c.rc.Get(c.names[j])
	c.gets++
	if err != nil {
		if c.deadOwner(j) {
			c.deadOps++
			return
		}
		c.violate("get %s (owner node %d, alive) failed: %v", c.names[j], c.owners[j], err)
		return
	}
	if c.deadOwner(j) {
		c.violate("get %s answered while its owner node %d is dead", c.names[j], c.killed)
	}
	if !ok {
		return // miss: evicted, lost to a restart, or never written — always legal
	}
	c.hits++
	c.checkHit(j, v, sent)
}

// doMultiGet fans a contiguous 24-key window through the router's
// scatter-gather path. The burst succeeds only when every owner is
// alive; when it includes the dead keyspace the router must terminate
// with SERVER_ERROR, never fake an END. Retries may replay the burst, so
// hits are collected last-write-wins and verified only on success.
func (c *routedClient) doMultiGet(j int) {
	const span = 24
	keys := make([][]byte, 0, span)
	idx := make([]int, 0, span)
	hasDead := false
	for o := 0; o < span; o++ {
		k := (j + o) % len(c.keys)
		keys = append(keys, c.names[k])
		idx = append(idx, k)
		if c.deadOwner(k) {
			hasDead = true
		}
	}
	hits := make(map[int][]byte, span)
	sent := time.Now()
	err := c.rc.MultiGet(keys, func(i int, _ uint32, val []byte) {
		hits[i] = append(hits[i][:0], val...)
	})
	c.gets++
	if err != nil {
		if hasDead {
			c.deadOps++
			return
		}
		c.violate("multiget [%s..] over live owners failed: %v", keys[0], err)
		return
	}
	if hasDead {
		c.violate("multiget [%s..] reached END while owner node %d is dead", keys[0], c.killed)
	}
	for i, v := range hits {
		c.hits++
		c.checkHit(idx[i], v, sent)
	}
}

// runPhase drives every client for nops ops concurrently and waits.
func runPhase(clients []*routedClient, phase, killed int, nops uint64) {
	var wg sync.WaitGroup
	for _, c := range clients {
		c.phase, c.killed = phase, killed
		wg.Add(1)
		go func(c *routedClient) {
			defer wg.Done()
			c.run(nops)
		}(c)
	}
	wg.Wait()
}

// awaitEjected polls the cluster's view of node i until it matches want.
func awaitEjected(cl *kvcluster.Cluster, i int, want bool, deadline time.Duration) bool {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if cl.Ejected(i) == want {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cl.Ejected(i) == want
}

func main() {
	var (
		seed       = flag.Uint64("seed", 1, "workload, placement, and fault seed")
		nodes      = flag.Int("nodes", 3, "backend cache nodes")
		clients    = flag.Int("clients", 4, "concurrent verifying clients")
		ops        = flag.Uint64("ops", 1500, "operations per client per phase (three phases)")
		nkeys      = flag.Int("keys", 256, "keyspace per client (single writer per key)")
		vsize      = flag.Int("value-size", 48, "encoded value size in bytes")
		acceptRate = flag.Float64("accept-error-rate", 0.1, "node listeners: transient accept-error probability")
		probeIvl   = flag.Duration("probe-interval", 25*time.Millisecond, "cluster health-probe period")
		graceLeak  = flag.Duration("leak-grace", 5*time.Second, "how long goroutines get to drain after shutdown")
		replicas   = flag.Int("replicas", 1, "ring owners per key; 2 switches the drill to the replicated-failover contract")
		ttl        = flag.Duration("ttl", time.Second, "TTL written on every 4th key per client (0 disables the TTL invariant)")
		noFlush    = flag.Bool("no-reintegrate-flush", false, "disable the flush-on-reintegrate barrier (must make the replicated gate fail)")
	)
	flag.Parse()
	replicated := *replicas > 1

	baseline := runtime.NumGoroutine()
	fmt.Printf("kvrouterchaos: seed %d, %d nodes, %d clients x 3x%d ops, %d keys/client, %d replicas\n",
		*seed, *nodes, *clients, *ops, *nkeys, *replicas)

	// Fleet: real kvservers on loopback behind accept-fault injection.
	// Cache geometry is generous so evictions don't dominate the window
	// check (misses are legal either way; hits are what exercise it).
	f, err := fleet.Start(*nodes, func(i int) fleet.NodeConfig {
		return fleet.NodeConfig{
			Server: kvserver.Config{
				Cache:        adaptivekv.Config{Shards: 2, Sets: 512, Ways: 8},
				ReadTimeout:  2 * time.Second,
				WriteTimeout: 2 * time.Second,
			},
			ListenFaults: &faultnet.Config{
				Seed:            chaosledger.Splitmix64(*seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15),
				AcceptErrorRate: *acceptRate,
			},
		}
	})
	if err != nil {
		fmt.Printf("kvrouterchaos: fleet: %v\n", err)
		os.Exit(1)
	}

	cl, err := kvcluster.New(kvcluster.Config{
		Nodes:                     f.Addrs(),
		Seed:                      *seed,
		PoolSize:                  4,
		Replicas:                  *replicas,
		DisableReintegrationFlush: *noFlush,
		ProbeInterval:             *probeIvl,
		ProbeBackoffMax:           8 * *probeIvl,
		Reconnect: kvproto.ReconnectConfig{
			DialTimeout:  500 * time.Millisecond,
			ReadTimeout:  2 * time.Second,
			WriteTimeout: 2 * time.Second,
			MaxAttempts:  4,
			BaseBackoff:  time.Millisecond,
			MaxBackoff:   20 * time.Millisecond,
		},
	})
	if err != nil {
		fmt.Printf("kvrouterchaos: cluster: %v\n", err)
		os.Exit(1)
	}
	cl.Start()

	router := kvcluster.NewRouter(cl, kvcluster.RouterConfig{
		ReadTimeout:  time.Minute,
		WriteTimeout: 5 * time.Second,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("kvrouterchaos: listen: %v\n", err)
		os.Exit(1)
	}
	go router.Serve(ln)

	ccs := make([]*routedClient, *clients)
	for i := range ccs {
		ccs[i] = newRoutedClient(i, ln.Addr().String(), chaosledger.Splitmix64(*seed+uint64(i)*7919), *nkeys, *vsize, cl)
		ccs[i].replicated = replicated
		ccs[i].retryPatience = 8 * time.Second
		ccs[i].ttl = *ttl
	}

	var failures []string
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}

	// Phase 1 — healthy fleet: no operation may fail.
	runPhase(ccs, phaseHealthy, -1, *ops)

	// Take one node down (seed-chosen) and soak through the outage.
	// Single-replica mode kills it (process death: cache gone, keyspace
	// fails fast). Replicated mode partitions it instead — the cache
	// stays hot, which is the hard reintegration case — and the replica
	// must keep the whole keyspace available.
	kill := int(chaosledger.Splitmix64(*seed^0x6b696c6c) % uint64(*nodes)) // "kill"
	if replicated {
		fmt.Printf("kvrouterchaos: partitioning node %d (%s)\n", kill, f.Nodes[kill].Addr())
		f.Nodes[kill].Partition()
	} else {
		fmt.Printf("kvrouterchaos: killing node %d (%s)\n", kill, f.Nodes[kill].Addr())
		f.Nodes[kill].Kill()
	}
	runPhase(ccs, phaseOutage, kill, *ops)
	if !awaitEjected(cl, kill, true, 10*time.Second) {
		fail("node %d was never ejected after its kill", kill)
	}
	if got := cl.Ejections(kill); got < 1 {
		fail("kvcluster_node_ejections_total for node %d = %d, want >= 1", kill, got)
	}
	for i := 0; i < *nodes; i++ {
		if i != kill && cl.Ejected(i) {
			fail("healthy node %d was ejected during node %d's outage", i, kill)
		}
	}
	if replicated {
		if cl.FailoverReads() == 0 {
			fail("kvcluster_failover_reads_total never moved through a replicated outage")
		}
		if cl.ReplicaWriteFailures() == 0 {
			fail("kvcluster_replica_write_failures_total never moved — divergence went uncounted")
		}
	}

	// Bring the node back — Restart (fresh empty cache) in single-replica
	// mode, Heal (pre-outage cache intact) in replicated mode — and
	// confirm the probers reintegrate it, then soak again: the whole
	// keyspace must serve, and nothing stale may resurrect.
	revive := f.Nodes[kill].Restart
	reviveName := "restarted"
	if replicated {
		revive = f.Nodes[kill].Heal
		reviveName = "healed"
	}
	if err := revive(); err != nil {
		fail("revive node %d: %v", kill, err)
	} else {
		fmt.Printf("kvrouterchaos: node %d %s, awaiting reintegration\n", kill, reviveName)
		if !awaitEjected(cl, kill, false, 10*time.Second) {
			fail("node %d was never reintegrated after %s", kill, reviveName)
		}
		if replicated && !*noFlush {
			if cl.ReintegrationFlushes() == 0 {
				fail("node %d reintegrated without a flush barrier", kill)
			}
			if got := f.Nodes[kill].Server().Flushes(); got == 0 {
				fail("node %d serves again but never applied a flush_all (flushes=%d)", kill, got)
			}
		}
		runPhase(ccs, phaseRecovered, -1, *ops)
	}

	// Teardown before reconciliation so every in-flight op has settled.
	router.Shutdown(ln, 2*time.Second)
	router.Wait()

	// Unacked tallies must reconcile exactly across all three layers:
	// backend ambiguity counted once, forwarded once, observed once.
	var seen, deadOps, cleanFails, totalOps, totalHits uint64
	for _, c := range ccs {
		seen += c.unackedSeen
		deadOps += c.deadOps
		cleanFails += c.cleanFails
		totalOps += c.ops
		totalHits += c.hits
		if c.fatal != nil {
			fail("%v", c.fatal)
		}
		for _, v := range c.violations {
			fail("%s", v)
		}
	}
	backendUnacked := cl.BackendCounters().Unacked.Load()
	forwarded := router.UnackedReplies()
	if replicated {
		// Best-effort replica writes can also end ambiguous; that ambiguity
		// is swallowed by the replication fan-out (never surfaced to a
		// client) and counted separately. Everything that DID reach a
		// client must still reconcile exactly.
		replicaUnacked := cl.ReplicaUnacked()
		if backendUnacked != forwarded+replicaUnacked || forwarded != seen {
			fail("unacked tallies diverge: backend counted %d, router forwarded %d + replica-side %d, clients observed %d",
				backendUnacked, forwarded, replicaUnacked, seen)
		}
		if deadOps > 0 {
			fail("replicated mode promised zero failed ops but %d operations failed through the outage", deadOps)
		}
	} else if backendUnacked != forwarded || forwarded != seen {
		fail("unacked tallies diverge: backend counted %d, router forwarded %d, clients observed %d",
			backendUnacked, forwarded, seen)
	}
	cl.Close()
	f.Close()

	// Goroutine-leak check: everything the drill started must unwind.
	deadline := time.Now().Add(*graceLeak)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		fail("goroutine leak: %d running after teardown, baseline %d", n, baseline)
	}

	bc := cl.BackendCounters()
	fmt.Printf("kvrouterchaos: %d ops, %d hits, %d dead-keyspace failures, %d clean write failures, %d unacked\n",
		totalOps, totalHits, deadOps, cleanFails, seen)
	fmt.Printf("kvrouterchaos: backend tallies: %d redials, %d retries, %d unacked, %d exhausted; node %d ejections: %d\n",
		bc.Redials.Load(), bc.Retries.Load(), bc.Unacked.Load(), bc.Exhausted.Load(), kill, cl.Ejections(kill))
	if replicated {
		fmt.Printf("kvrouterchaos: replication tallies: %d failover reads, %d replica write failures (%d ambiguous), %d reintegration flushes\n",
			cl.FailoverReads(), cl.ReplicaWriteFailures(), cl.ReplicaUnacked(), cl.ReintegrationFlushes())
	}

	if len(failures) > 0 {
		fmt.Printf("kvrouterchaos: FAIL — %d invariant violations:\n", len(failures))
		for _, v := range failures {
			fmt.Printf("  - %s\n", v)
		}
		os.Exit(1)
	}
	if replicated {
		fmt.Println("kvrouterchaos: PASS — zero failed ops through the partition, reads failed over, reintegration flushed, tallies reconcile")
	} else {
		fmt.Println("kvrouterchaos: PASS — ejection fired, surviving keyspace stayed available, no ambiguous-write replays, tallies reconcile")
	}
}
