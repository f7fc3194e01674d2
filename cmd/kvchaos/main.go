// Command kvchaos is the robustness analogue of cmd/benchregress: a
// seeded chaos drill that must pass for the serving stack to be
// considered healthy. One verifying client runs against either of two
// topologies, each assembled in one process:
//
//	-topology node:   clients → faultnet.Proxy (resets, stalls, partial
//	                  I/O, latency) → kvserver behind a faultnet.Listener
//	-topology router: clients → kvcluster.Router → kvcluster.Cluster →
//	                  -nodes kvservers, each behind a faultnet.Listener
//
// The adaptive policy may change which keys miss, never which values are
// correct: a miss is always legal, and a corrupt, resurrected, expired
// or never-acknowledged value never is. Every get is checked against its
// single-writer key's history (the acked version, ambiguous versions
// that may still land, cleanly failed versions that must not, TTL
// deadlines). Slow-loris connections must be reaped by the serving
// endpoint's read deadline. After the soak, liveness and TTL probes and
// the cas ledger (workers racing gets/cas increments on one counter,
// which must end at the acknowledged STORED count) run at that endpoint,
// and shutdown must leak no goroutine.
//
// The node topology adds the serving envelope under fault injection:
// injected handler panics recovered, accept faults retried, a hit-ratio
// floor, and metric books that agree exactly after shutdown. The router
// topology soaks healthy → outage → recovered. At -replicas 1 a killed
// node is ejected, its keyspace fails fast, the rest never fails, and
// the restarted node is reintegrated. At -replicas 2 a partitioned node
// costs no op at all, reads fail over, the healed node is flushed before
// it serves (-no-reintegrate-flush must make the drill fail on a stale
// read), and the cas ledger rides through a partition of its counter's
// primary. Ambiguous writes reconcile exactly across backend clients,
// router and verifying clients.
//
// Exit status 0 means every invariant held; 1 reports the violations;
// 2 rejects the invocation.
//
//	kvchaos -seed 7 -reset-rate 0.01 -panic-rate 0.002 -accept-error-rate 0.4
//	kvchaos -topology router -seed 5 -replicas 2 -clients 4 -ops 1500 -keys 256
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
	"repro/internal/kvcluster"
	"repro/internal/kvproto"
	"repro/internal/kvserver"
	"repro/internal/metrics"
)

var (
	topology = flag.String("topology", "node", "node: one server behind fault injection; router: a routed fleet through a node outage")

	seed       = flag.Uint64("seed", 1, "workload, fault and placement seed")
	clients    = flag.Int("clients", 6, "concurrent verifying clients")
	ops        = flag.Uint64("ops", 5000, "operations per client per soak phase (router: three phases)")
	nkeys      = flag.Int("keys", 512, "keyspace per client (single writer per key)")
	vsize      = flag.Int("value-size", 48, "encoded value size in bytes")
	loris      = flag.Int("slowloris", 2, "slow-loris aggressor connections at the serving endpoint")
	acceptRate = flag.Float64("accept-error-rate", 0.25, "node listeners: transient accept-error probability")
	ttl        = flag.Duration("ttl", time.Second, "TTL written on every 4th key per client (0 disables the TTL invariant)")

	casWorkers    = flag.Int("cas-workers", 4, "post-soak cas ledger workers incrementing one shared counter (0 disables)")
	casIncrements = flag.Int("cas-increments", 200, "increments per cas ledger worker")

	readTO    = flag.Duration("read-timeout", 500*time.Millisecond, "serving endpoint's read deadline (reaps slow loris)")
	maxConns  = flag.Int("max-conns", 0, "serving endpoint's connection bound (0 = clients+slowloris+cas-workers+3)")
	graceLeak = flag.Duration("leak-grace", 5*time.Second, "how long goroutines get to drain after shutdown")

	resetRate = flag.Float64("reset-rate", 0.002, "node: proxy per-I/O connection reset probability")
	stallRate = flag.Float64("stall-rate", 0.002, "node: proxy per-write byte-stall probability")
	stall     = flag.Duration("stall", 20*time.Millisecond, "node: proxy stall length")
	partial   = flag.Float64("partial-rate", 0.05, "node: proxy partial read/write probability")
	delayRate = flag.Float64("delay-rate", 0.01, "node: proxy added-latency probability")
	delay     = flag.Duration("delay", time.Millisecond, "node: proxy injected latency")
	panicRate = flag.Float64("panic-rate", 0.001, "node: per-request injected handler panic probability")
	minHit    = flag.Float64("min-hit-ratio", 0.2, "node: fail if the server-side hit ratio ends below this")

	nodes    = flag.Int("nodes", 3, "router: backend cache nodes")
	replicas = flag.Int("replicas", 1, "router: ring owners per key; 2 switches to the replicated-failover contract")
	probeIvl = flag.Duration("probe-interval", 25*time.Millisecond, "router: cluster health-probe period")
	noFlush  = flag.Bool("no-reintegrate-flush", false, "router: disable the flush-on-reintegrate barrier (must make the replicated drill fail)")
)

// topologyOnly names the flags that mean something in one topology
// only; setting one under the other topology is rejected.
var topologyOnly = map[string]string{
	"reset-rate": "node", "stall-rate": "node", "stall": "node", "partial-rate": "node",
	"delay-rate": "node", "delay": "node", "panic-rate": "node", "min-hit-ratio": "node",
	"nodes": "router", "replicas": "router", "probe-interval": "router", "no-reintegrate-flush": "router",
}

// ledgerKey is the cas ledger's shared counter.
var ledgerKey = []byte("kvchaos-cas-counter")

// Soak phases: a node runs one healthy phase; the router takes a node
// down for the outage. Healthy and recovered phases excuse no failure.
const (
	phaseHealthy = iota
	phaseOutage
	phaseRecovered
)

var phaseNames = [...]string{"healthy", "outage", "recovered"}

// keyState is one key's write history: the shared ledger core plus the
// clean-failure and ever-acked sets the routed failure modes need.
type keyState struct {
	chaosledger.Key
	failed    map[uint64]struct{} // cleanly failed versions that must never land
	everAcked map[uint64]struct{} // every version ever acknowledged (failover window)
}

// client drives one connection's op mix and checks every reply against
// its keys' version windows. Keys are namespaced per client so each has
// exactly one writer. owners holds each key's ring primary (0, the only
// node, in the node topology), so the client knows which failures an
// outage excuses; on a node killed stays -1 and nothing is excused.
type client struct {
	id     int
	rc     *kvproto.ReconnectClient
	rng    chaosledger.Rand
	keys   []keyState
	names  [][]byte
	owners []int
	phase  int
	killed int // node down during phaseOutage, -1 otherwise

	ops, gets, hits, ackedSets uint64
	unacked                    uint64 // ambiguous set replies observed, either signal
	cleanFails, deadOps        uint64
	expiredMisses              uint64 // post-deadline reads correctly answered as misses
	violations                 []string
}

// retryPatience bounds the replicated contract's same-version retry of
// a cleanly failed set: the handoff to the replica waits on ejection.
const retryPatience = 8 * time.Second

func newClient(id int, addr string, cl *kvcluster.Cluster, ctrs *kvproto.ReconnectCounters) *client {
	cseed := chaosledger.Splitmix64(*seed + uint64(id)*7919)
	c := &client{
		id: id,
		rc: kvproto.NewReconnect(addr, kvproto.ReconnectConfig{
			DialTimeout:  2 * time.Second,
			ReadTimeout:  5 * time.Second,
			WriteTimeout: 5 * time.Second,
			MaxAttempts:  12,
			BaseBackoff:  2 * time.Millisecond,
			MaxBackoff:   250 * time.Millisecond,
			Seed:         cseed,
			Counters:     ctrs,
		}),
		rng:    chaosledger.NewRand(cseed),
		keys:   make([]keyState, *nkeys),
		names:  make([][]byte, *nkeys),
		owners: make([]int, *nkeys),
		killed: -1,
	}
	for j := range c.keys {
		c.keys[j] = keyState{
			Key:       chaosledger.NewKey(),
			failed:    make(map[uint64]struct{}),
			everAcked: make(map[uint64]struct{}),
		}
		c.names[j] = []byte(fmt.Sprintf("c%dk%d", id, j))
		if cl != nil {
			c.owners[j] = cl.Ring().OwnerIndex(c.names[j])
		}
	}
	return c
}

func (c *client) violate(format string, args ...any) {
	c.violations = append(c.violations, fmt.Sprintf("client %d [%s]: %s",
		c.id, phaseNames[c.phase], fmt.Sprintf(format, args...)))
}

// ownerDown reports whether key j's ring primary is the node down in
// the current phase. At R=1 that is the only condition under which a
// failure is legal (deadOwner). The replicated contract excuses no
// failure — the replica must absorb the outage — but inside this window
// a read may return any ever-acked version: a diverged replica legally
// serves an older acknowledged write, never a failed or unknown one.
func (c *client) ownerDown(j int) bool { return c.phase == phaseOutage && c.owners[j] == c.killed }

func (c *client) deadOwner(j int) bool { return *replicas < 2 && c.ownerDown(j) }

// unackedReply reports an ambiguous write: the router forwarded backend
// ambiguity as "SERVER_ERROR unacked", or the client's own connection died.
func unackedReply(err error) bool {
	var se *kvproto.ServerError
	return errors.Is(err, kvproto.ErrUnacked) || errors.As(err, &se) && se.Msg == "unacked"
}

// run drives nops ops, then drops the connection: the endpoint's read
// deadline would reap it while the drill sits between phases, and a set
// sent on a reaped connection is an ambiguity no server produced.
func (c *client) run(nops uint64) {
	for i := uint64(0); i < nops && len(c.violations) < 20; i++ {
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
	c.rc.Close()
}

func (c *client) doSet(j int) {
	ks := &c.keys[j]
	ver := ks.Begin()
	val := chaosledger.EncodeValue(ver, c.names[j], *vsize)
	var exptime int64
	if *ttl > 0 && j%4 == 0 {
		// Every owner, and every retry, gets the same absolute instant.
		exptime = ks.Expire(ver, *ttl)
	}
	err := c.rc.Set(c.names[j], 0, exptime, val)
	if err != nil && *replicas > 1 && !unackedReply(err) {
		// A clean failure is provably unapplied at the sync owner, so
		// retrying the same version is safe until the patience runs out.
		deadline := time.Now().Add(retryPatience)
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
		// Ambiguous: the write may land until the dead connection's
		// handler unwinds. Widen the window.
		ks.Pending[ver] = struct{}{}
		c.unacked++
	default:
		// Clean failure: never applied ("node down" fails before send,
		// "backend failure" only after unprocessed attempts), never read.
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
// sent is when the read was issued: the server processed it no earlier,
// so a deadline already past then makes any VALUE a TTL violation.
func (c *client) checkHit(j int, v []byte, sent time.Time) {
	ks := &c.keys[j]
	// TTL honesty (inside Check) outranks every window allowance below.
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
	// The replica may have missed best-effort copies while the primary
	// still acked: legal divergence until reintegration flushes it.
	if _, was := ks.everAcked[ver]; !was || *replicas < 2 || !c.ownerDown(j) {
		c.violate("get %s %v", c.names[j], err)
	}
}

func (c *client) doGet(j int) {
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
		// Miss: always legal. A read past the acked version's deadline
		// feeds the node topology's expiry-accounting cross-check.
		if c.keys[j].Expired(c.keys[j].Acked, sent) {
			c.expiredMisses++
		}
		return
	}
	c.hits++
	c.checkHit(j, v, sent)
}

// doMultiGet fetches a contiguous 24-key window; spanning the dead
// keyspace it must end in SERVER_ERROR, never a fake END. Retries may
// replay the burst, so hits are kept last-write-wins, checked on success.
func (c *client) doMultiGet(j int) {
	const span = 24
	keys := make([][]byte, 0, span)
	idx := make([]int, 0, span)
	hasDead := false
	for o := 0; o < span; o++ {
		k := (j + o) % len(c.keys)
		keys = append(keys, c.names[k])
		idx = append(idx, k)
		hasDead = hasDead || c.deadOwner(k)
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

// runPhase drives every client for -ops ops concurrently and waits.
func runPhase(ccs []*client, phase, killed int) {
	var wg sync.WaitGroup
	for _, c := range ccs {
		c.phase, c.killed = phase, killed
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(*ops)
		}(c)
	}
	wg.Wait()
}

// runLoris dribbles a never-terminated command at addr one byte at a
// time until the server's read deadline reaps it (nil), or reports the
// connection surviving the whole patience window, its slot held hostage.
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

// probe checks post-soak service at the serving endpoint: an acked write
// must read back, and a 1s-TTL value must read, then miss, and be counted
// by the nodes' expiry books — the soak can outrun its own TTLs.
func (d *drill) probe(rc *kvproto.ReconnectClient) {
	key, val := []byte("kvchaos-probe"), []byte("alive")
	if err := d.store(rc, key, 0, val); err != nil {
		d.fail("post-soak liveness: set: %v", err)
	} else if v, ok, err := rc.Get(key); err != nil || !ok || !bytes.Equal(v, val) {
		d.fail("post-soak liveness: get ok=%v err=%v", ok, err)
	}
	if *ttl <= 0 {
		return
	}
	key, val = []byte("kvchaos-ttl-probe"), []byte("dying")
	if err := d.store(rc, key, time.Now().Add(time.Second).Unix()+1, val); err != nil {
		d.fail("ttl probe: set: %v", err)
		return
	}
	if v, ok, err := rc.Get(key); err != nil || !ok || !bytes.Equal(v, val) {
		d.fail("ttl probe: pre-deadline get ok=%v err=%v", ok, err)
	}
	if !eventually(5*time.Second, func() bool { _, ok, err := rc.Get(key); return err == nil && !ok }) {
		d.fail("ttl probe: value still readable 4s past a 1s TTL")
		return
	}
	// The miss may be observed lazily before the reclaim is counted;
	// give the sweeper one full shard cycle.
	if !eventually(5*time.Second, func() bool {
		var expired uint64
		for _, n := range d.nodes {
			expired += n.Server().Cache().Stats().Expired
		}
		return expired > 0
	}) {
		d.fail("ttl probe: value expired but kv_expired_total never moved")
	}
}

// casLedger is the read-modify-write atomicity gate: workers race
// gets/cas loops incrementing ledgerKey at the serving endpoint, each
// increment looping until acknowledged STORED. It returns the acked
// swaps, the final counter, and the failed replica copies that could
// have left the counter's survivor behind.
//
// No error is legal until a partition begins. At R≥2 the counter's
// primary is partitioned once half the increments are acked: from then
// on a worker that sees an error re-reads and retries with a fresh
// unique (a cas is never replayed). The final value is read before the
// heal; flushed before it serves, the healed primary must answer a miss.
func (d *drill) casLedger() (acked, final, copiesFailed uint64) {
	primary, total := -1, uint64(*casWorkers**casIncrements)
	var before uint64
	if d.cl != nil {
		before = d.cl.ReplicaWriteFailures()
		if *replicas > 1 && total > 0 {
			primary = d.cl.Ring().OwnerIndex(ledgerKey)
		}
	}
	var ackedN atomic.Uint64
	var partitioned atomic.Bool
	dial := func(id int) *kvproto.ReconnectClient {
		return kvproto.NewReconnect(d.serveAddr, kvproto.ReconnectConfig{Seed: *seed ^ uint64(id)})
	}
	c := dial(-1)
	defer c.Close()
	if err := d.store(c, ledgerKey, 0, []byte("0")); err != nil {
		d.fail("cas ledger: seed set: %v", err)
		return 0, 0, 0
	}

	var wg sync.WaitGroup
	for w := 0; w < *casWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := dial(w)
			defer wc.Close()
			progress := time.Now()
			var lastErr error
			for i := 0; i < *casIncrements; {
				if time.Since(progress) > 30*time.Second {
					d.fail("cas ledger: worker %d: increment %d made no progress in 30s (last error %v)", w, i, lastErr)
					return
				}
				v, _, id, ok, err := wc.Gets(ledgerKey)
				st := kvproto.CasNotFound
				if err == nil && ok {
					n, perr := strconv.ParseUint(string(v), 10, 64)
					if perr != nil {
						d.fail("cas ledger: worker %d: corrupt counter value %q", w, v)
						return
					}
					st, err = wc.Cas(ledgerKey, 0, 0, id, []byte(strconv.FormatUint(n+1, 10)))
				}
				switch {
				case err != nil:
					if unackedReply(err) {
						d.unacked.Add(1)
					}
					if lastErr = err; !partitioned.Load() {
						d.fail("cas ledger: worker %d: %v", w, err)
						return
					}
					time.Sleep(5 * time.Millisecond)
				case st == kvproto.CasStored:
					progress = time.Now()
					i++
					if ackedN.Add(1) == max(total/2, 1) && primary >= 0 {
						// This worker pauses; the others race on through
						// the partition and the ejection.
						fmt.Printf("kvchaos: cas ledger: partitioning the counter's primary, node %d\n", primary)
						partitioned.Store(true)
						d.nodes[primary].Partition()
						if !awaitEjected(d.cl, primary, true) {
							d.fail("cas ledger: the counter's primary, node %d, was never ejected", primary)
						}
					}
				case st != kvproto.CasExists: // EXISTS: another worker won the race
					d.fail("cas ledger: worker %d: the resident counter vanished (gets hit %v, cas %v)", w, ok, st)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	acked = ackedN.Load()
	if acked != total {
		d.fail("cas ledger: %d swaps acknowledged, want %d (every increment loops until STORED)", acked, total)
	}
	if d.cl != nil {
		copiesFailed = d.cl.ReplicaWriteFailures() - before
	}
	if primary >= 0 {
		// Once the primary is ejected, each swap a survivor stores counts
		// one skipped copy to the primary, which costs the survivor
		// nothing. The ledger is the run's only cas traffic.
		var skipped uint64
		for i, n := range d.nodes {
			if i != primary {
				skipped += n.Server().Cache().Stats().CasStored
			}
		}
		if skipped > copiesFailed {
			d.fail("cas ledger: survivors stored %d swaps but only %d replica copies were counted failed", skipped, copiesFailed)
		}
		copiesFailed -= min(skipped, copiesFailed)
	}
	v, _, _, ok, err := c.Gets(ledgerKey)
	final, perr := strconv.ParseUint(string(v), 10, 64)
	switch {
	case err != nil || !ok || perr != nil:
		d.fail("cas ledger: final read (%q, %v, %v)", v, ok, err)
	case final > acked || acked-final > copiesFailed:
		// A double-applied increment is never legal; a lost one only
		// where a copy to the survivor failed and left it behind.
		d.fail("cas ledger: counter ended at %d but %d swaps were acknowledged STORED and %d replica copies to its survivor failed — increments lost or double-applied",
			final, acked, copiesFailed)
	}
	if primary >= 0 {
		if err := d.nodes[primary].Heal(); err != nil || !awaitEjected(d.cl, primary, false) {
			d.fail("cas ledger: node %d was not reintegrated after the heal (%v)", primary, err)
		} else if v, ok, err := c.Get(ledgerKey); err != nil || ok {
			d.fail("cas ledger: after the heal the counter read (%q, %v, %v), want a miss from the flushed primary", v, ok, err)
		}
	}
	return acked, final, copiesFailed
}

// store sets a value nothing else writes (ledger seed, probes); an
// ambiguous reply still counts toward the unacked books.
func (d *drill) store(rc *kvproto.ReconnectClient, key []byte, exptime int64, val []byte) error {
	err := rc.Set(key, 0, exptime, val)
	if unackedReply(err) {
		d.unacked.Add(1)
	}
	return err
}

// drill is one assembled topology and the violations found in it.
type drill struct {
	clientAddr string // where verifying clients connect: the node's fault proxy, or the router
	serveAddr  string // the serving endpoint itself: slow-loris, probes and the ledger aim here
	nodes      []*fleet.Node
	cl         *kvcluster.Cluster // router topology only
	router     *kvcluster.Router
	ln         net.Listener
	hookPanics atomic.Uint64 // node topology: injected handler panics
	unacked    atomic.Uint64 // ambiguous set replies the ledger and probes saw

	mu       sync.Mutex
	failures []string
}

func (d *drill) fail(format string, args ...any) {
	d.mu.Lock()
	d.failures = append(d.failures, fmt.Sprintf(format, args...))
	d.mu.Unlock()
}

// startNode brings up one node with seeded handler panics, behind a
// fault-wrapped listener, behind a fault proxy.
func startNode() (*drill, error) {
	d := &drill{}
	var hookCalls atomic.Uint64
	hook := func(req *kvproto.Request) {
		if *panicRate <= 0 || (req.Op != kvproto.OpGet && req.Op != kvproto.OpSet) {
			return
		}
		n := hookCalls.Add(1)
		if float64(chaosledger.Splitmix64(*seed^n)>>11)/(1<<53) < *panicRate {
			panic(fmt.Sprintf("kvchaos: injected handler panic #%d", d.hookPanics.Add(1)))
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
		return nil, err
	}
	d.nodes = []*fleet.Node{node}
	d.clientAddr, d.serveAddr = node.Addr(), node.ServerAddr()
	return d, nil
}

// startRouter brings up -nodes nodes behind accept-fault injection, a
// probing Cluster over them and a Router. Caches are generous so that
// hits, which exercise the window check, dominate.
func startRouter() (*drill, error) {
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
		return nil, err
	}
	d := &drill{nodes: f.Nodes}
	d.cl, err = kvcluster.New(kvcluster.Config{
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
	if err == nil {
		d.ln, err = net.Listen("tcp", "127.0.0.1:0")
	}
	if err != nil {
		d.close()
		return nil, err
	}
	d.cl.Start()
	d.router = kvcluster.NewRouter(d.cl, kvcluster.RouterConfig{
		ReadTimeout:  *readTO,
		WriteTimeout: 5 * time.Second,
		MaxConns:     *maxConns,
	})
	go d.router.Serve(d.ln)
	d.clientAddr, d.serveAddr = d.ln.Addr().String(), d.ln.Addr().String()
	return d, nil
}

// close tears the topology down, router first, so every in-flight op
// has settled before the books are read.
func (d *drill) close() {
	if d.router != nil {
		d.router.Shutdown(d.ln, 2*time.Second)
		d.router.Wait()
	}
	if d.cl != nil {
		d.cl.Close()
	}
	for _, n := range d.nodes {
		n.Close()
	}
}

// eventually polls cond until it holds or patience runs out.
func eventually(patience time.Duration, cond func() bool) bool {
	for end := time.Now().Add(patience); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(end) {
			return false
		}
	}
	return true
}

// awaitEjected waits for the cluster's view of node i to match want.
func awaitEjected(cl *kvcluster.Cluster, i int, want bool) bool {
	return eventually(10*time.Second, func() bool { return cl.Ejected(i) == want })
}

// outageSoak runs healthy, then a seed-chosen node down (killed at R=1;
// partitioned at R≥2, its cache hot: the hard reintegration case), then
// the node back and reintegrated. It returns the node it took down.
func (d *drill) outageSoak(ccs []*client) int {
	cl, replicated := d.cl, *replicas > 1
	runPhase(ccs, phaseHealthy, -1)

	kill := int(chaosledger.Splitmix64(*seed^0x6b696c6c) % uint64(len(d.nodes))) // "kill"
	n := d.nodes[kill]
	down, revive, reviveName := n.Kill, n.Restart, "restarted"
	if replicated {
		down, revive, reviveName = n.Partition, n.Heal, "healed"
	}
	fmt.Printf("kvchaos: taking node %d (%s) down\n", kill, n.Addr())
	down()
	runPhase(ccs, phaseOutage, kill)
	if !awaitEjected(cl, kill, true) || cl.Ejections(kill) < 1 {
		d.fail("node %d was never ejected after its outage (%d ejections counted)", kill, cl.Ejections(kill))
	}
	for i := range d.nodes {
		if i != kill && cl.Ejected(i) {
			d.fail("healthy node %d was ejected during node %d's outage", i, kill)
		}
	}
	if replicated && (cl.FailoverReads() == 0 || cl.ReplicaWriteFailures() == 0) {
		d.fail("a replicated outage left failover reads (%d) or replica write failures (%d) uncounted",
			cl.FailoverReads(), cl.ReplicaWriteFailures())
	}

	// The whole keyspace must serve again, and nothing stale may
	// resurrect: a restarted cache is empty, a healed one flushed.
	if err := revive(); err != nil {
		d.fail("revive node %d: %v", kill, err)
		return kill
	}
	fmt.Printf("kvchaos: node %d %s, awaiting reintegration\n", kill, reviveName)
	if !awaitEjected(cl, kill, false) {
		d.fail("node %d was never reintegrated after it %s", kill, reviveName)
	}
	if replicated && !*noFlush && (cl.ReintegrationFlushes() == 0 || n.Server().Flushes() == 0) {
		d.fail("node %d reintegrated without a flush barrier (%d barriers, %d flushes applied)",
			kill, cl.ReintegrationFlushes(), n.Server().Flushes())
	}
	runPhase(ccs, phaseRecovered, -1)
	return kill
}

func main() {
	flag.Parse()
	if *topology != "node" && *topology != "router" {
		fmt.Fprintf(os.Stderr, "kvchaos: -topology %q: want node or router\n", *topology)
		os.Exit(2)
	}
	flag.Visit(func(f *flag.Flag) {
		if t, ok := topologyOnly[f.Name]; ok && t != *topology {
			fmt.Fprintf(os.Stderr, "kvchaos: -%s applies to -topology %s only\n", f.Name, t)
			os.Exit(2)
		}
	})
	// The connection bound admits clients, loris aggressors, ledger
	// workers (the worst case; they barely overlap) and probe slack.
	if *maxConns == 0 {
		*maxConns = *clients + *loris + *casWorkers + 3
	}
	baseline := runtime.NumGoroutine()
	fmt.Printf("kvchaos: topology %s, seed %d, %d clients x %d ops, %d keys/client, %d loris\n",
		*topology, *seed, *clients, *ops, *nkeys, *loris)
	start := startNode
	if *topology == "router" {
		fmt.Printf("kvchaos: %d nodes, %d replicas\n", *nodes, *replicas)
		start = startRouter
	}
	d, err := start()
	if err != nil {
		fmt.Printf("kvchaos: %s: %v\n", *topology, err)
		os.Exit(1)
	}

	// Every verifying client and the probe share one ReconnectCounters,
	// so the aggregate can be cross-checked against per-client tallies.
	var redials, retries, unackedOps, exhausted metrics.Counter
	rctrs := &kvproto.ReconnectCounters{
		Redials: &redials, Retries: &retries,
		Unacked: &unackedOps, Exhausted: &exhausted,
	}
	ccs := make([]*client, *clients)
	for i := range ccs {
		ccs[i] = newClient(i, d.clientAddr, d.cl, rctrs)
	}
	lorisErrs := make(chan error, *loris)
	for i := 0; i < *loris; i++ {
		go func() { lorisErrs <- runLoris(d.serveAddr, *readTO*20+10*time.Second) }()
	}
	soakStart, kill := time.Now(), -1
	if d.cl == nil {
		runPhase(ccs, phaseHealthy, -1)
	} else {
		kill = d.outageSoak(ccs)
	}
	soak := time.Since(soakStart)
	// Each loris resolves on its own: reaped (nil) within ~readTO, or an
	// error after its patience window.
	for i := 0; i < *loris; i++ {
		if err := <-lorisErrs; err != nil {
			d.fail("slow-loris: %v", err)
		}
	}
	probe := kvproto.NewReconnect(d.serveAddr, kvproto.ReconnectConfig{Seed: *seed + 99, Counters: rctrs})
	d.probe(probe)
	probe.Close()
	// The soak's clients issue no cas: the ledger is the run's only cas
	// traffic.
	var casAcked, casFinal, copiesFailed uint64
	if *casWorkers > 0 {
		casAcked, casFinal, copiesFailed = d.casLedger()
	}

	d.close()
	leakDeadline := time.Now().Add(*graceLeak)
	for n := runtime.NumGoroutine(); n > baseline; n = runtime.NumGoroutine() {
		if time.Now().After(leakDeadline) {
			d.fail("goroutine leak: %d above baseline after shutdown", n-baseline)
			break
		}
		time.Sleep(25 * time.Millisecond)
		runtime.GC()
	}

	var tOps, tGets, tHits, tAcked, tUnacked, tClean, tDead, tExpiredMisses uint64
	tRedials, tRetries, tUnackedOps, tExhausted := probe.Redials, probe.Retries, probe.Unacked, probe.Exhausted
	for _, c := range ccs {
		tOps, tGets, tHits, tAcked = tOps+c.ops, tGets+c.gets, tHits+c.hits, tAcked+c.ackedSets
		tUnacked, tClean, tDead = tUnacked+c.unacked, tClean+c.cleanFails, tDead+c.deadOps
		tExpiredMisses += c.expiredMisses
		tRedials, tRetries = tRedials+c.rc.Redials, tRetries+c.rc.Retries
		tUnackedOps, tExhausted = tUnackedOps+c.rc.Unacked, tExhausted+c.rc.Exhausted
		d.failures = append(d.failures, c.violations...)
	}
	fmt.Printf("  soak: %d ops in %.2fs (%.0f ops/s), %d gets, %d hits, %d acked sets, %d unacked sets, %d clean write failures, %d dead-keyspace failures\n",
		tOps, soak.Seconds(), float64(tOps)/soak.Seconds(), tGets, tHits, tAcked, tUnacked, tClean, tDead)
	if *casWorkers > 0 {
		fmt.Printf("  cas ledger: %d workers x %d increments, %d swaps acknowledged STORED, counter ended at %d, %d replica copies to its survivor failed\n",
			*casWorkers, *casIncrements, casAcked, casFinal, copiesFailed)
	}
	if redials.Load() != tRedials || retries.Load() != tRetries ||
		unackedOps.Load() != tUnackedOps || exhausted.Load() != tExhausted {
		d.fail("shared reconnect counters diverge from client tallies: redials %d/%d, retries %d/%d, unacked %d/%d, exhausted %d/%d",
			redials.Load(), tRedials, retries.Load(), tRetries,
			unackedOps.Load(), tUnackedOps, exhausted.Load(), tExhausted)
	}
	if d.cl == nil {
		d.nodeBooks(casAcked, tExpiredMisses, tUnacked+d.unacked.Load(), tUnackedOps)
	} else {
		d.routerBooks(kill, tUnacked+d.unacked.Load(), tDead)
	}

	if len(d.failures) > 0 {
		fmt.Printf("kvchaos: FAIL (%d violations)\n", len(d.failures))
		for _, f := range d.failures {
			fmt.Printf("  FAIL: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Printf("kvchaos: PASS (%s topology) — no lost or resurrected acknowledged writes, no double-applied cas, no goroutine leaks\n", *topology)
}

// routerBooks reconciles the router topology's ambiguous writes: each
// is counted once by the backend clients and either forwarded to a
// client once or, as a best-effort replica copy, swallowed and counted
// replica-side; everything forwarded was seen by a client.
func (d *drill) routerBooks(kill int, seen, deadOps uint64) {
	cl, bc := d.cl, d.cl.BackendCounters()
	fmt.Printf("  backend tallies: %d redials, %d retries, %d unacked, %d exhausted; node %d ejections: %d\n",
		bc.Redials.Load(), bc.Retries.Load(), bc.Unacked.Load(), bc.Exhausted.Load(), kill, cl.Ejections(kill))
	fmt.Printf("  replication tallies: %d failover reads, %d replica write failures (%d ambiguous), %d reintegration flushes\n",
		cl.FailoverReads(), cl.ReplicaWriteFailures(), cl.ReplicaUnacked(), cl.ReintegrationFlushes())
	backend, forwarded, replicaSide := bc.Unacked.Load(), d.router.UnackedReplies(), cl.ReplicaUnacked()
	// At R=1 there is no replica copy to swallow an ambiguity.
	if backend != forwarded+replicaSide || forwarded != seen || (*replicas < 2 && replicaSide != 0) {
		d.fail("unacked tallies diverge: backend counted %d, router forwarded %d + replica-side %d, clients observed %d",
			backend, forwarded, replicaSide, seen)
	}
	if *replicas > 1 && deadOps > 0 {
		d.fail("replicated mode promised zero failed ops but %d operations failed through the outage", deadOps)
	}
}

// nodeBooks checks the node's serving envelope and metric books, read
// after shutdown drained every handler (an unacked write may land until
// its handler unwinds): metrics, engine and clients must agree exactly.
func (d *drill) nodeBooks(casAcked, expiredMisses, seenUnacked, rcUnacked uint64) {
	node := d.nodes[0]
	srv, lstats, pstats := node.Server(), node.ListenStats(), node.ProxyStats()
	counters, final := srv.Counters(), srv.Cache().Stats()
	fmt.Printf("  faults: %d accept errors, %d resets, %d partial reads, %d partial writes, %d stalls, %d delays\n",
		lstats.AcceptErrors, pstats.Resets+lstats.Resets, pstats.PartialReads+lstats.PartialReads,
		pstats.PartialWrites+lstats.PartialWrites, pstats.Stalls+lstats.Stalls, pstats.Delays+lstats.Delays)
	fmt.Printf("  server: %d accept retries, %d panics recovered (%d injected), %d conns rejected, %d client errors\n",
		counters.AcceptRetries, counters.PanicsRecovered, d.hookPanics.Load(), counters.ConnsRejected, counters.ClientErrors)
	fmt.Printf("  cache: hit ratio %.4f, %d evictions, %d policy switches\n",
		final.HitRatio(), final.Evictions, final.PolicySwitches)
	fmt.Printf("  ttl: %d post-deadline reads answered as misses; server expired %d (%d swept, %d sweep passes)\n",
		expiredMisses, final.Expired, final.SweepRemoved, srv.Cache().SweepPasses())
	getLat, setLat, delLat := srv.OpLatency("get"), srv.OpLatency("set"), srv.OpLatency("delete")
	getsLat, casLat := srv.OpLatency("gets"), srv.OpLatency("cas")
	nc := srv.NetCounters()
	fmt.Printf("  metrics: %d/%d/%d get/set/delete dispatches recorded, get p99 %v, %d B in, %d B out\n",
		getLat.Count, setLat.Count, delLat.Count, getLat.P99, nc.BytesIn, nc.BytesOut)
	// get and gets both resolve through the cache's get path (one sample
	// per key looked up); every dispatched set is far below the admission
	// bound, so it reaches the cache; the ledger is the only cas source;
	// the clients' only ambiguity is their own connections dying.
	for _, b := range []struct {
		what      string
		got, want uint64
	}{
		{"panics injected / recovered", d.hookPanics.Load(), counters.PanicsRecovered},
		{"get+gets histogram samples / cache gets", getLat.Count + getsLat.Count, final.Gets},
		{"set histogram samples / cache stores", setLat.Count, final.Stores},
		{"delete histogram samples / cache deletes", delLat.Count, final.Deletes},
		{"cas histogram samples / cache cas ops", casLat.Count, final.CasOps()},
		{"cas ledger acked swaps / cache CasStored", casAcked, final.CasStored},
		{"connections opened / closed", nc.ConnsOpened, nc.ConnsClosed},
		{"unacked sets seen by clients / by the reconnect layer", seenUnacked, rcUnacked},
	} {
		if b.got != b.want {
			d.fail("books disagree: %s = %d / %d", b.what, b.got, b.want)
		}
	}
	if lstats.AcceptErrors > 0 && counters.AcceptRetries == 0 {
		d.fail("accept faults were injected but the server retried none (retry path dead?)")
	}
	if final.HitRatio() < *minHit {
		d.fail("adaptivity: hit ratio %.4f below floor %.2f under fault-perturbed traffic", final.HitRatio(), *minHit)
	}
	// Post-deadline misses with zero capacity evictions can only have
	// come through the expiry path, which counts.
	if *ttl > 0 && expiredMisses > 0 && final.Evictions == 0 && final.Expired == 0 {
		d.fail("TTL accounting dead: %d post-deadline misses observed, zero evictions, yet kv_expired_total is 0", expiredMisses)
	}
	if active := srv.ConnsActive(); active != 0 {
		d.fail("conns_active gauge is %d after shutdown (want 0, never negative)", active)
	}
	if nc.BytesIn == 0 || nc.BytesOut == 0 {
		d.fail("byte meters dead under real traffic: %d in, %d out", nc.BytesIn, nc.BytesOut)
	}
	var expo bytes.Buffer
	if err := srv.WriteMetrics(&expo); err != nil {
		d.fail("metrics exposition: %v", err)
	} else if err := metrics.Lint(expo.Bytes()); err != nil {
		d.fail("metrics exposition invalid: %v", err)
	}
}
