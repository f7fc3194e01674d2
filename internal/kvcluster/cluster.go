package kvcluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/chaosledger"
	"repro/internal/kvproto"
	"repro/internal/metrics"
)

// Config assembles a Cluster. Only Nodes is required.
type Config struct {
	// Nodes are the backend addresses; their order fixes node indices
	// (per-node metrics, Ejected) for the cluster's lifetime.
	Nodes []string

	VNodes int    // virtual nodes per physical node (default DefaultVNodes)
	Seed   uint64 // ring + backoff-jitter seed; same seed, same placement

	// PoolSize is the connection budget per node (default 4). Checkout
	// blocks past it, bounding per-node concurrency.
	PoolSize int

	// FailThreshold consecutive failures eject a node (default
	// DefaultFailThreshold).
	FailThreshold int

	// Replicas is the number of distinct ring owners each key lives on
	// (default 1 — exactly the classic single-owner behavior; clamped to
	// len(Nodes)). With Replicas > 1, writes go synchronously to the
	// first non-ejected owner — the client ack is gated only on that ack,
	// preserving the never-replay-ambiguous-writes contract — and
	// best-effort to the remaining owners, with every skipped or failed
	// replica write counted as divergence. A set's replica copies ride
	// its run's scatter, concurrently with the sync copy (SetBatch); a
	// cas or delete copies to the replicas only after the sync owner
	// acks (write). A read goes to its key's first live owner, and a key
	// whose owner fails mid-op gets one retry on its next live owner
	// (gather), so a single node loss costs hit ratio, never
	// availability.
	Replicas int

	// DisableReintegrationFlush skips the flush_all barrier the cluster
	// normally runs before marking a recovered node up in replicated
	// mode. A partitioned-but-not-restarted node then comes back still
	// holding versions its replica overwrote during the outage — the
	// stale-read regression the chaos gate exists to catch. Tests only.
	DisableReintegrationFlush bool

	// ProbeInterval is the health-probe period for serving nodes
	// (default 250ms); ejected nodes are probed with delays doubling
	// from it up to ProbeBackoffMax (default 2s), so a dead node costs
	// one probe dial per backoff step instead of a connect storm.
	ProbeInterval   time.Duration
	ProbeBackoffMax time.Duration

	// Reconnect tunes the backend clients (timeouts, redial backoff).
	// Counters and Seed are managed by the cluster.
	Reconnect kvproto.ReconnectConfig

	// Registry receives the cluster's instruments; nil creates a
	// private one (exposed via Registry()).
	Registry *metrics.Registry

	// Logf receives operational messages (ejections, reintegrations);
	// nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 4
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = DefaultFailThreshold
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeBackoffMax <= 0 {
		c.ProbeBackoffMax = 2 * time.Second
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Replicas > len(c.Nodes) {
		c.Replicas = len(c.Nodes)
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// op indices for the routed/failed counter families.
const (
	ixGet = iota
	ixSet
	ixDelete
	ixGets
	ixCas
	ixOps
)

var ixNames = [ixOps]string{"get", "set", "delete", "gets", "cas"}

// clusterMetrics bundles the cluster's instruments: per-node health and
// latency, fanout shape, routed-vs-failed outcomes, and the aggregated
// backend retry tallies every ReconnectClient in every pool shares.
type clusterMetrics struct {
	nodeUp        []*metrics.Gauge
	nodeEjections []*metrics.Counter
	nodeRTT       []*metrics.Histogram
	fanout        *metrics.Histogram
	routed        [ixOps]*metrics.Counter
	failed        [ixOps]*metrics.Counter
	backend       kvproto.ReconnectCounters

	failoverReads        *metrics.Counter
	replicaWriteFailures *metrics.Counter
	replicaUnacked       *metrics.Counter
	reintegrationFlushes *metrics.Counter
}

func newClusterMetrics(reg *metrics.Registry, nodes []string) *clusterMetrics {
	m := &clusterMetrics{
		nodeUp:        make([]*metrics.Gauge, len(nodes)),
		nodeEjections: make([]*metrics.Counter, len(nodes)),
		nodeRTT:       make([]*metrics.Histogram, len(nodes)),
	}
	// Each family is registered contiguously across its label set — the
	// registry enforces exposition-order grouping at construction time.
	for i, addr := range nodes {
		m.nodeUp[i] = reg.Gauge("kvcluster_node_up", `node="`+addr+`"`, "1 while the node serves its keyspace, 0 while ejected")
	}
	for i, addr := range nodes {
		m.nodeEjections[i] = reg.Counter("kvcluster_node_ejections_total", `node="`+addr+`"`, "transitions into the ejected state")
	}
	for i, addr := range nodes {
		m.nodeRTT[i] = reg.Histogram("kvcluster_node_rtt_seconds", `node="`+addr+`"`, "backend round-trip time, ops and probes")
	}
	m.fanout = reg.HistogramUnitless("kvcluster_fanout_nodes", "", "backend nodes touched per get or gets scatter")
	for i, name := range ixNames {
		m.routed[i] = reg.Counter("kvcluster_ops_routed_total", `op="`+name+`"`, "operations routed to an owner node")
	}
	for i, name := range ixNames {
		m.failed[i] = reg.Counter("kvcluster_ops_failed_total", `op="`+name+`"`, "routed operations that failed (ejected owner, backend error, ambiguous write)")
	}
	m.backend = kvproto.ReconnectCounters{
		Redials:   reg.Counter("kvcluster_backend_redials_total", "", "backend connections (re)established"),
		Retries:   reg.Counter("kvcluster_backend_retries_total", "", "backend attempts beyond each operation's first"),
		Unacked:   reg.Counter("kvcluster_backend_unacked_total", "", "writes abandoned as ambiguous (never replayed)"),
		Exhausted: reg.Counter("kvcluster_backend_exhausted_total", "", "backend operations that ran out of attempts"),
	}
	m.failoverReads = reg.Counter("kvcluster_failover_reads_total", "",
		"reads served by a non-primary replica (primary ejected or failing mid-op)")
	m.replicaWriteFailures = reg.Counter("kvcluster_replica_write_failures_total", "",
		"best-effort replica writes skipped or failed — replica divergence repaired only by later writes or reintegration flush")
	m.replicaUnacked = reg.Counter("kvcluster_replica_unacked_total", "",
		"replica writes abandoned as ambiguous (subset of backend unacked that never reached a client)")
	m.reintegrationFlushes = reg.Counter("kvcluster_reintegration_flushes_total", "",
		"flush_all barriers completed before marking a recovered node up")
	return m
}

// Cluster routes kvproto operations across a fleet of cache nodes.
// Routing methods are safe for concurrent use; each call checks its
// owner's pool for a connection, so concurrency per node is bounded by
// PoolSize.
type Cluster struct {
	cfg   Config
	ring  *Ring
	pools []*nodePool
	m     *clusterMetrics

	scatters sync.Pool // *scatter, reused by every get, gets and set run, single keys too

	// writeLocks serialize a replicated cas or delete with its replica
	// copies, per key stripe (write).
	writeLocks [64]sync.Mutex

	startOnce sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// New builds a Cluster over cfg.Nodes. Connections are dialed lazily by
// the first operation against each node; call Start to begin health
// probing (without it, nodes are only ejected by operation failures and
// never reintegrated).
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Nodes, cfg.VNodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cl := &Cluster{
		cfg:  cfg,
		ring: ring,
		m:    newClusterMetrics(cfg.Registry, ring.Nodes()),
		stop: make(chan struct{}),
	}
	for i, addr := range ring.Nodes() {
		rcfg := cfg.Reconnect
		rcfg.Counters = &cl.m.backend
		// Decorrelate each connection's backoff jitter while keeping the
		// whole schedule a function of cfg.Seed.
		base := chaosledger.Splitmix64(cfg.Seed ^ fnv1a(cfg.Seed, []byte(addr)))
		mkSeed := base
		mk := func() *kvproto.ReconnectClient {
			mkSeed = chaosledger.Splitmix64(mkSeed)
			return kvproto.NewReconnect(addr, withSeed(rcfg, mkSeed))
		}
		cl.pools = append(cl.pools, newNodePool(addr, i, cfg.PoolSize,
			int32(cfg.FailThreshold), cl.m.nodeUp[i], cl.m.nodeEjections[i], mk))
	}
	cl.scatters.New = func() any { return &scatter{cl: cl} }
	return cl, nil
}

func withSeed(cfg kvproto.ReconnectConfig, seed uint64) kvproto.ReconnectConfig {
	cfg.Seed = seed
	return cfg
}

func (cl *Cluster) logf(format string, args ...any) {
	if cl.cfg.Logf != nil {
		cl.cfg.Logf(format, args...)
	}
}

// Registry returns the metrics registry the cluster records into.
func (cl *Cluster) Registry() *metrics.Registry { return cl.cfg.Registry }

// BackendCounters returns the shared retry tallies every backend client
// records into — soak drivers reconcile the Unacked count against the
// ambiguous-write errors their clients observed.
func (cl *Cluster) BackendCounters() *kvproto.ReconnectCounters { return &cl.m.backend }

// Ring returns the cluster's placement ring.
func (cl *Cluster) Ring() *Ring { return cl.ring }

// Ejected reports whether node i (in Config.Nodes order) is currently
// ejected.
func (cl *Cluster) Ejected(i int) bool { return cl.pools[i].ejected.Load() }

// Ejections returns how many times node i has been ejected — the same
// tally the kvcluster_node_ejections_total series exposes, for gates
// that assert the metric fired.
func (cl *Cluster) Ejections(i int) uint64 { return cl.m.nodeEjections[i].Load() }

// Start launches one health prober per node. Safe to call once.
func (cl *Cluster) Start() {
	cl.startOnce.Do(func() {
		for _, p := range cl.pools {
			cl.wg.Add(1)
			go cl.probeLoop(p)
		}
	})
}

// Close stops the probers and closes every pooled connection. Callers
// must have finished all in-flight operations.
func (cl *Cluster) Close() {
	select {
	case <-cl.stop:
	default:
		close(cl.stop)
	}
	cl.wg.Wait()
	for _, p := range cl.pools {
		for {
			select {
			case c := <-p.free:
				c.rc.Close()
			default:
			}
			if len(p.free) == 0 {
				break
			}
		}
	}
}

// probeSeed derives one node's probe-client seed from the cluster seed,
// decorrelated from the pool clients' seeds by the "probe" tag.
func probeSeed(seed uint64, addr string) uint64 {
	return chaosledger.Splitmix64(seed ^ fnv1a(seed, []byte(addr)) ^ 0x70726f6265) // "probe"
}

// probePhase is a prober's initial delay: a deterministic per-node
// offset in [0, interval). Without it every prober waited exactly
// ProbeInterval before its first round trip, so the whole fleet's
// probes — including the reintegration probes after an outage — fired
// in lockstep.
func probePhase(seed uint64, interval time.Duration) time.Duration {
	if interval <= 0 {
		return 0
	}
	return time.Duration(chaosledger.Splitmix64(seed) % uint64(interval))
}

// needsReintegrationFlush reports whether a recovered node must be
// flushed before it serves again. Only replicated clusters need the
// barrier: with a single owner per key, an outage fails that keyspace
// fast instead of serving older versions from a replica, so nothing a
// returning node holds can be staler than what clients were acked.
func (cl *Cluster) needsReintegrationFlush() bool {
	return cl.cfg.Replicas > 1 && !cl.cfg.DisableReintegrationFlush
}

// probeLoop drives one node's health: a noop round trip per
// ProbeInterval while serving, delays doubling up to ProbeBackoffMax
// while ejected. The probe client is dedicated (never from the pool) so
// probing an ejected node doesn't fight the fail-fast checkout, and
// single-attempt (the loop owns the retry schedule). In replicated mode
// the prober is also the only path back to serving: a recovered node is
// flushed before it is marked up, because during its outage the
// surviving replicas kept acking newer versions — cold is safe, stale
// is not.
func (cl *Cluster) probeLoop(p *nodePool) {
	defer cl.wg.Done()
	rcfg := cl.cfg.Reconnect
	rcfg.MaxAttempts = 1
	rcfg.Seed = probeSeed(cl.cfg.Seed, p.addr)
	c := kvproto.NewReconnect(p.addr, rcfg)
	defer c.Close()

	delay := cl.cfg.ProbeInterval
	timer := time.NewTimer(probePhase(rcfg.Seed, delay))
	defer timer.Stop()
	for {
		select {
		case <-cl.stop:
			return
		case <-timer.C:
		}
		start := time.Now()
		err := c.Noop()
		if err == nil && p.ejected.Load() && cl.needsReintegrationFlush() {
			// The node answers again, but if it was partitioned rather
			// than restarted it still holds whatever it served before the
			// outage. Flush before marking it up; a failed flush keeps it
			// ejected and on the backoff schedule.
			if ferr := c.FlushAll(); ferr != nil {
				err = ferr
			} else {
				cl.m.reintegrationFlushes.Inc()
				cl.logf("kvcluster: node %s flushed before reintegration", p.addr)
			}
		}
		if err == nil {
			cl.m.nodeRTT[p.idx].Record(time.Since(start))
			if p.noteSuccess() {
				cl.logf("kvcluster: node %s reintegrated", p.addr)
			}
			delay = cl.cfg.ProbeInterval
		} else {
			if p.noteFailure() {
				cl.logf("kvcluster: node %s ejected: %v", p.addr, err)
			}
			if p.ejected.Load() {
				delay *= 2
				if delay > cl.cfg.ProbeBackoffMax {
					delay = cl.cfg.ProbeBackoffMax
				}
			} else {
				delay = cl.cfg.ProbeInterval
			}
		}
		timer.Reset(delay)
	}
}

// observe classifies an operation's outcome for node health: nil resets
// the failure run; a recoverable, non-busy protocol rejection is the
// caller's mistake, not the node's; anything else (dead stream,
// exhausted retries, sustained busy shedding, ambiguous write) counts
// toward ejection.
func (cl *Cluster) observe(p *nodePool, err error) {
	if err == nil {
		if cl.cfg.Replicas > 1 {
			// Replicated clusters reintegrate only through the prober,
			// which flushes the node first — an op that happens to reach
			// an ejected node must not mark it up with stale contents.
			p.noteSuccessKeepEjected()
		} else {
			p.noteSuccess()
		}
		return
	}
	if kvproto.Recoverable(err) && !kvproto.IsBusy(err) {
		return
	}
	if p.noteFailure() {
		cl.logf("kvcluster: node %s ejected: %v", p.addr, err)
	}
}

// ownersFor appends key's replica set (primary first) into buf.
func (cl *Cluster) ownersFor(buf []int, key []byte) []int {
	if cl.cfg.Replicas <= 1 {
		return append(buf, cl.ring.OwnerIndex(key))
	}
	return cl.ring.AppendOwnerIndexes(buf, key, cl.cfg.Replicas)
}

// syncOwner picks the write target: the first non-ejected owner, or -1
// when the whole replica set is down.
func (cl *Cluster) syncOwner(owners []int) int {
	for _, o := range owners {
		if !cl.pools[o].ejected.Load() {
			return o
		}
	}
	return -1
}

// nodeDown is the error for an operation whose node is ejected.
func nodeDown(p *nodePool) error { return fmt.Errorf("%w: %s", ErrNodeDown, p.addr) }

// call runs fn on a client checked out of p's pool: it times the round
// trip into the node's RTT histogram, returns the client, and feeds the
// outcome to node health. It is the only place an operation touches a
// pool. A client idle longer than idleRedial re-dials before fn runs,
// reusing the clock read that starts the RTT. A checkout refused
// because the node is ejected returns the bare ErrNodeDown without
// running fn or touching health.
func (cl *Cluster) call(p *nodePool, fn func(*kvproto.ReconnectClient) error) error {
	pc, err := p.get()
	if err != nil {
		return err
	}
	start := time.Now()
	if start.Sub(pc.last) > idleRedial {
		pc.rc.Close() // the node may have reaped it; the op re-dials
	}
	err = fn(pc.rc)
	pc.last = time.Now()
	cl.m.nodeRTT[p.idx].Record(pc.last.Sub(start))
	p.put(pc)
	cl.observe(p, err)
	return err
}

// write runs a cas or delete (op ix) under the sync-owner contract: do
// runs on the first live owner alone and the ack gates only on that
// node. (Sets keep the contract but take SetBatch's scatter, where the
// replica copies travel with the sync copy instead of after it.) Writes
// never fail over mid-op — an owner that dies between the pick and the
// ack surfaces as an error rather than silently acking on a node the
// next read won't prefer — and the backend client never replays an
// ambiguous write, so an ErrUnacked from the synchronous owner
// propagates unchanged: the caller owns the idempotency decision,
// exactly as with a single node.
//
// Once the ack is earned, and if replicateIf (nil means always) agrees,
// replica runs on every other owner. Replica writes are strictly
// best-effort: a skipped (ejected) or failed replica only bumps the
// divergence counter — reads prefer the primary, and reintegration
// flushes close the stale window — and an ambiguous replica write is
// additionally tallied so unacked reconciliation can subtract writes
// that never gated a client ack.
//
// With replicas, the key's stripe lock is held from the sync write to
// the last copy, so a copy lands before the next cas or delete of that
// key is sent anywhere. Otherwise a copy still on its way when the
// primary is ejected could overwrite a cas the replica has since
// acknowledged — a worker that read the replica's older value wins
// there — and the increment would vanish with no failed copy counted.
func (cl *Cluster) write(ix int, key []byte, do func(*kvproto.ReconnectClient) error, replicateIf func() bool, replica func(*kvproto.ReconnectClient) error) error {
	cl.m.routed[ix].Inc()
	var ownBuf [8]int
	owners := cl.ownersFor(ownBuf[:0], key)
	if len(owners) > 1 {
		mu := &cl.writeLocks[fnv1a(cl.cfg.Seed, key)%uint64(len(cl.writeLocks))]
		mu.Lock()
		defer mu.Unlock()
	}
	sync := cl.syncOwner(owners)
	if sync < 0 {
		cl.m.failed[ix].Inc()
		return nodeDown(cl.pools[owners[0]])
	}
	p := cl.pools[sync]
	if err := cl.call(p, do); err != nil {
		cl.m.failed[ix].Inc()
		if err == ErrNodeDown {
			return nodeDown(p)
		}
		return fmt.Errorf("kvcluster: %s via %s: %w", ixNames[ix], p.addr, err)
	}
	if replicateIf != nil && !replicateIf() {
		return nil
	}
	for _, o := range owners {
		if o == sync {
			continue
		}
		rp := cl.pools[o]
		if rp.ejected.Load() {
			cl.m.replicaWriteFailures.Inc()
			continue
		}
		if rerr := cl.call(rp, replica); rerr != nil {
			cl.m.replicaWriteFailures.Inc()
			if errors.Is(rerr, kvproto.ErrUnacked) {
				cl.m.replicaUnacked.Inc()
			}
		}
	}
	return nil
}

// Get fetches key: MultiGet of one key. The returned value is a fresh
// copy (safe to retain).
func (cl *Cluster) Get(key []byte) (val []byte, ok bool, err error) {
	err = cl.MultiGet([][]byte{key}, func(_ int, _ uint32, v []byte) {
		val, ok = append([]byte(nil), v...), true
	})
	if err != nil {
		return nil, false, err
	}
	return val, ok, nil
}

// Gets fetches key together with its flags and cas unique: MultiGets of
// one key. The returned value is a fresh copy (safe to retain).
//
// Cas uniques are node-local: the unique returned here identifies a
// version on whichever node answered. A later Cas gates on the replica
// set's current synchronous owner, so a unique fetched from a failover
// replica (or from a primary that was ejected in between) will not match
// that owner's counter and the cas answers EXISTS — the caller re-reads
// and retries, and a stale swap is never silently applied.
func (cl *Cluster) Gets(key []byte) (val []byte, flags uint32, casid uint64, ok bool, err error) {
	err = cl.MultiGets([][]byte{key}, func(_ int, f uint32, id uint64, v []byte) {
		val, flags, casid, ok = append([]byte(nil), v...), f, id, true
	})
	if err != nil {
		return nil, 0, 0, false, err
	}
	return val, flags, casid, ok, nil
}

// Set stores val under key: SetBatch with a run of one.
func (cl *Cluster) Set(key []byte, flags uint32, exptime int64, val []byte) error {
	var errs [1]error
	cl.SetBatch([]kvproto.SetReq{{Key: key, Value: val, Flags: flags, Exptime: exptime}}, errs[:])
	return errs[0]
}

// SetBatch stores a run of sets with one scatter: every set goes to its
// sync owner (the first live owner) and, best-effort, to each other live
// owner, and each node's share — sync and replica copies alike — is
// pipelined on one pooled connection in request order, so two sets to
// one key land in order on every owner. The legs run concurrently, so a
// run costs about one round trip to its slowest node.
//
// errs[i] receives set i's outcome, which gates on its sync owner's
// reply alone, exactly as a lone write does: a node-down or failed sync
// copy fails the set, and an ambiguous one surfaces as ErrUnacked. A
// replica copy is sent in the same scatter, not after the ack, so it
// may land even when its set fails; replica failures — skipped
// (ejected), failed or ambiguous — are only counted, once per copy.
// SetBatch returns nil when every set was acked.
//
// A relative exptime is normalized to its absolute form once at entry,
// so the sync owner, every replica, and any backend-level retry all
// carry the identical deadline — replication lag can never extend a
// value's life on one owner relative to another.
func (cl *Cluster) SetBatch(sets []kvproto.SetReq, errs []error) error {
	if len(sets) == 0 {
		return nil
	}
	cl.m.routed[ixSet].Add(uint64(len(sets)))
	now := time.Now()
	sc := cl.scatters.Get().(*scatter)
	defer cl.scatters.Put(sc)
	sc.reset(len(cl.pools), len(sets), legSet)

	var ownBuf [8]int
	for i := range sets {
		st := sets[i]
		st.Exptime = kvproto.AbsoluteExptime(st.Exptime, now)
		owners := cl.ownersFor(ownBuf[:0], st.Key)
		sync := cl.syncOwner(owners)
		sc.syncOf[i] = sync
		errs[i] = nil
		if sync < 0 {
			errs[i] = nodeDown(cl.pools[owners[0]])
			continue
		}
		for _, o := range owners {
			if o != sync && cl.pools[o].ejected.Load() {
				cl.m.replicaWriteFailures.Inc()
				continue
			}
			sc.groups[o] = append(sc.groups[o], i)
			sc.sets[o] = append(sc.sets[o], st)
		}
	}

	cl.runScatter(sc)

	for n, p := range cl.pools {
		for j, i := range sc.groups[n] {
			err := sc.setErrs[n][j]
			switch {
			case err == nil:
			case sc.syncOf[i] == n:
				if err == ErrNodeDown {
					errs[i] = nodeDown(p)
				} else {
					errs[i] = fmt.Errorf("kvcluster: set via %s: %w", p.addr, err)
				}
			default:
				cl.m.replicaWriteFailures.Inc()
				if errors.Is(err, kvproto.ErrUnacked) {
					cl.m.replicaUnacked.Inc()
				}
			}
		}
	}
	var firstErr error
	failed := 0
	for _, err := range errs[:len(sets)] {
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if failed > 0 {
		cl.m.failed[ixSet].Add(uint64(failed))
	}
	return firstErr
}

// Cas atomically replaces key's value iff its cas unique — from a prior
// Gets — still matches, with Set's ack contract. Because cas uniques are
// node-local, a unique obtained before a failover cannot match the new
// owner's counter: the cas answers CasExists and the caller's
// read-modify-write loop re-reads, which is exactly the safe outcome — a
// conflict is reported instead of a lost update being applied.
//
// A winning cas is replicated to the remaining owners as a plain set of
// the stored value (best-effort, like Set): replica cas uniques would
// never match anyway, and the replicas' job is only to hold the newest
// acked value for failover reads. CasExists/CasNotFound outcomes change
// nothing and are not replicated.
func (cl *Cluster) Cas(key []byte, flags uint32, exptime int64, casid uint64, val []byte) (kvproto.CasStatus, error) {
	exptime = kvproto.AbsoluteExptime(exptime, time.Now())
	var st kvproto.CasStatus
	err := cl.write(ixCas, key,
		func(c *kvproto.ReconnectClient) (err error) {
			st, err = c.Cas(key, flags, exptime, casid, val)
			return err
		},
		func() bool { return st == kvproto.CasStored },
		func(c *kvproto.ReconnectClient) error { return c.Set(key, flags, exptime, val) })
	if err != nil {
		return kvproto.CasNotFound, err
	}
	return st, nil
}

// Delete removes key with Set's ack contract; like a winning cas, it is
// copied to the remaining owners only once the sync owner has answered.
func (cl *Cluster) Delete(key []byte) (found bool, err error) {
	err = cl.write(ixDelete, key,
		func(c *kvproto.ReconnectClient) (err error) {
			found, err = c.Delete(key)
			return err
		},
		nil,
		func(c *kvproto.ReconnectClient) error {
			_, err := c.Delete(key)
			return err
		})
	if err != nil {
		return false, err
	}
	return found, nil
}

// valRef records one key's outcome inside a scatter: where its value
// bytes landed in the owner node's scratch buffer.
type valRef struct {
	hit   bool
	flags uint32
	casid uint64 // gets only: the answering node's cas unique
	node  int
	off   int
	n     int
}

// legKind is what a scatter's legs run.
type legKind uint8

const (
	legGet  legKind = iota // a multi-key get per node
	legGets                // the same, each hit carrying its cas unique
	legSet                 // a pipelined set run per node
)

// scatter is the reusable state of one multi-key get or gets, or one set
// run: per-node index groups (disjoint, so node legs never share an
// element) and, per kind, the legs' keys, value scratch and per-key
// outcomes, or their sets and per-set outcomes. Its WaitGroup and leg
// closures live here, with the pooled scatter, so a scatter allocates
// nothing once warm.
type scatter struct {
	cl     *Cluster
	kind   legKind
	groups [][]int
	errs   []error // per node: a get leg's own failure

	keys [][][]byte // get legs
	bufs [][]byte
	refs []valRef

	sets    [][]kvproto.SetReq // set legs: each node's share, in request order
	setErrs [][]error          // per node: each of its sets' outcome
	syncOf  []int              // per set: its sync owner, -1 when none

	wg   sync.WaitGroup
	legs []func() // legs[n] runs node n's leg on its own goroutine
}

func (sc *scatter) reset(nodes, n int, kind legKind) {
	sc.kind = kind
	for len(sc.groups) < nodes {
		node := len(sc.groups)
		sc.groups = append(sc.groups, nil)
		sc.errs = append(sc.errs, nil)
		sc.keys = append(sc.keys, nil)
		sc.bufs = append(sc.bufs, nil)
		sc.sets = append(sc.sets, nil)
		sc.setErrs = append(sc.setErrs, nil)
		sc.legs = append(sc.legs, func() {
			defer sc.wg.Done()
			sc.leg(node)
		})
	}
	for i := 0; i < nodes; i++ {
		sc.groups[i] = sc.groups[i][:0]
		sc.errs[i] = nil
		sc.keys[i] = sc.keys[i][:0]
		sc.bufs[i] = sc.bufs[i][:0]
		clear(sc.sets[i]) // drop the previous run's key and value bytes
		sc.sets[i] = sc.sets[i][:0]
	}
	if kind == legSet {
		if cap(sc.syncOf) < n {
			sc.syncOf = make([]int, n)
		}
		sc.syncOf = sc.syncOf[:n]
		return
	}
	if cap(sc.refs) < n {
		sc.refs = make([]valRef, n)
	}
	sc.refs = sc.refs[:n]
	for i := range sc.refs {
		sc.refs[i] = valRef{}
	}
}

// leg runs node n's share of the scatter.
func (sc *scatter) leg(n int) {
	if sc.kind == legSet {
		sc.cl.subSet(sc, n)
	} else {
		sc.cl.subGet(sc, n)
	}
}

// MultiGet fetches any number of keys, splitting the burst by each
// key's first live owner, running the sub-gets concurrently (each
// chunked at the protocol's MaxGetKeys by the backend client), and
// delivering hits via fn in exact request order — index i refers to
// keys[i], and val is valid only until fn returns.
//
// In replicated mode a sub-get that fails mid-burst, for any reason,
// gets exactly one retry pass: its keys are regrouped onto their next
// live replica and retried, and a key whose retry fails too (or that
// has no live alternative) fails. Hits from the retry pass interleave
// with first-pass hits in exact request order. If any key still has no
// answer, the surviving hits are delivered and MultiGet returns an
// error naming the first failed first-pass node — the caller knows the
// answer is partial and can degrade explicitly, the way cmd/kvrouter
// terminates the reply with SERVER_ERROR instead of END.
func (cl *Cluster) MultiGet(keys [][]byte, fn func(i int, flags uint32, val []byte)) error {
	return cl.gather(keys, false, func(i int, flags uint32, _ uint64, val []byte) { fn(i, flags, val) }, nil)
}

// MultiGets is MultiGet for gets: each hit also carries the answering
// node's cas unique. Uniques are node-local (see Gets), so a gets
// scatter runs on the same owners a get would.
func (cl *Cluster) MultiGets(keys [][]byte, fn func(i int, flags uint32, casid uint64, val []byte)) error {
	return cl.gather(keys, true, fn, nil)
}

// gather is MultiGet or, with cas set, MultiGets. failed, when non-nil,
// receives each key that got no answer together with its error, after
// every hit has been delivered.
func (cl *Cluster) gather(keys [][]byte, cas bool, fn func(i int, flags uint32, casid uint64, val []byte), failed func(i int, err error)) error {
	if len(keys) == 0 {
		return nil
	}
	ix, kind := ixGet, legGet
	if cas {
		ix, kind = ixGets, legGets
	}
	cl.m.routed[ix].Add(uint64(len(keys)))
	sc := cl.scatters.Get().(*scatter)
	defer cl.scatters.Put(sc)
	sc.reset(len(cl.pools), len(keys), kind)

	var ownBuf [8]int
	touched, failover := 0, 0
	for i, k := range keys {
		owners := cl.ownersFor(ownBuf[:0], k)
		// All owners ejected: keep the primary so the group fails fast
		// with the single-owner error shape.
		n := owners[0]
		if o := cl.syncOwner(owners); o >= 0 {
			n = o
		}
		if n != owners[0] {
			failover++
		}
		if len(sc.groups[n]) == 0 {
			touched++
		}
		sc.groups[n] = append(sc.groups[n], i)
		sc.keys[n] = append(sc.keys[n], k)
	}
	if failover > 0 {
		cl.m.failoverReads.Add(uint64(failover))
	}
	cl.m.fanout.RecordNS(int64(touched))

	cl.runScatter(sc)

	// Failover retry pass: keys whose node failed mid-burst move to
	// their next live replica. The retry uses a second scatter so the
	// first pass's partial bytes stay addressable for delivery checks.
	var sc2 *scatter
	var retryNode []int
	if cl.cfg.Replicas > 1 && cl.scatterFailed(sc) {
		sc2 = cl.scatters.Get().(*scatter)
		defer cl.scatters.Put(sc2)
		sc2.reset(len(cl.pools), len(keys), kind)
		retryNode = make([]int, len(keys))
		for i := range retryNode {
			retryNode[i] = -1
		}
		retried := 0
		for n := range cl.pools {
			if sc.errs[n] == nil {
				continue
			}
			for j, gi := range sc.groups[n] {
				k := sc.keys[n][j]
				owners := cl.ownersFor(ownBuf[:0], k)
				for _, o := range owners {
					if o == n || cl.pools[o].ejected.Load() || sc.errs[o] != nil {
						continue
					}
					retryNode[gi] = o
					sc2.groups[o] = append(sc2.groups[o], gi)
					sc2.keys[o] = append(sc2.keys[o], k)
					retried++
					break
				}
			}
		}
		if retried > 0 {
			cl.m.failoverReads.Add(uint64(retried))
			cl.runScatter(sc2)
		}
	}

	// Deliver in request order, skipping hits from failed nodes — a
	// node that died mid-burst may have reported a stale partial run. A
	// key whose first-pass node failed delivers from the retry pass
	// instead; the single index loop keeps exact request order across
	// the two passes.
	for i := range sc.refs {
		if r := &sc.refs[i]; r.hit && sc.errs[r.node] == nil {
			fn(i, r.flags, r.casid, sc.bufs[r.node][r.off:r.off+r.n])
			continue
		}
		if sc2 == nil {
			continue
		}
		if r := &sc2.refs[i]; r.hit && sc2.errs[r.node] == nil {
			fn(i, r.flags, r.casid, sc2.bufs[r.node][r.off:r.off+r.n])
		}
	}

	// A key failed only if its first-pass node failed and no retry
	// reached a live replica cleanly.
	failedKeys := 0
	var firstErr error
	for n := range cl.pools {
		if sc.errs[n] == nil {
			continue
		}
		var err error // node n's error, wrapped once
		for _, gi := range sc.groups[n] {
			if retryNode != nil {
				if rn := retryNode[gi]; rn >= 0 && sc2.errs[rn] == nil {
					continue
				}
			}
			if err == nil {
				err = fmt.Errorf("kvcluster: %s via %s: %w", ixNames[ix], cl.pools[n].addr, sc.errs[n])
			}
			failedKeys++
			if firstErr == nil {
				firstErr = err
			}
			if failed != nil {
				failed(gi, err)
			}
		}
	}
	if failedKeys > 0 {
		cl.m.failed[ix].Add(uint64(failedKeys))
		return firstErr
	}
	return nil
}

// scatterFailed reports whether any populated group of sc errored.
func (cl *Cluster) scatterFailed(sc *scatter) bool {
	for n := range cl.pools {
		if sc.errs[n] != nil && len(sc.groups[n]) > 0 {
			return true
		}
	}
	return false
}

// runScatter executes every populated group of sc, get and set legs
// alike: each leg but the last on a goroutine of its own, the last on
// the calling goroutine, so a one-node scatter spawns nothing.
func (cl *Cluster) runScatter(sc *scatter) {
	last := -1
	for n := range sc.groups {
		if len(sc.groups[n]) == 0 {
			continue
		}
		if last >= 0 {
			sc.wg.Add(1)
			go sc.legs[last]()
		}
		last = n
	}
	if last >= 0 {
		sc.leg(last)
	}
	sc.wg.Wait()
}

// FlushAll empties every live node in the fleet. Ejected nodes are
// skipped: in replicated mode that is safe — the reintegration barrier
// flushes them before they serve again — but with a single replica
// there is no such barrier, so a skipped node makes the flush partial
// and is reported as ErrNodeDown after the live nodes are flushed.
func (cl *Cluster) FlushAll() error {
	var firstErr error
	for _, p := range cl.pools {
		if p.ejected.Load() {
			if !cl.needsReintegrationFlush() && firstErr == nil {
				firstErr = nodeDown(p)
			}
			continue
		}
		err := cl.call(p, (*kvproto.ReconnectClient).FlushAll)
		if err == ErrNodeDown {
			err = nodeDown(p)
		} else if err != nil {
			err = fmt.Errorf("kvcluster: flush_all via %s: %w", p.addr, err)
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// FailoverReads reports reads served by a non-primary replica.
func (cl *Cluster) FailoverReads() uint64 { return cl.m.failoverReads.Load() }

// ReplicaWriteFailures reports best-effort replica writes skipped or
// failed — the replica-divergence tally.
func (cl *Cluster) ReplicaWriteFailures() uint64 { return cl.m.replicaWriteFailures.Load() }

// ReplicaUnacked reports replica writes abandoned as ambiguous; soak
// drivers subtract it from the backend unacked tally to reconcile
// against the ambiguous errors their clients actually observed.
func (cl *Cluster) ReplicaUnacked() uint64 { return cl.m.replicaUnacked.Load() }

// ReintegrationFlushes reports flush_all barriers completed before a
// recovered node was marked up.
func (cl *Cluster) ReintegrationFlushes() uint64 { return cl.m.reintegrationFlushes.Load() }

// Replicas reports the effective replication factor.
func (cl *Cluster) Replicas() int { return cl.cfg.Replicas }

// subGet runs one node's slice of a scatter. It writes only this node's
// disjoint entries of sc.refs/sc.bufs/sc.errs, so concurrent subGets
// never race.
func (cl *Cluster) subGet(sc *scatter, n int) {
	group := sc.groups[n]
	// A backend retry replays the whole chunk; appending again and
	// re-pointing the ref keeps the last run's bytes, which is the
	// idempotent-callback contract MultiGet documents.
	fill := func(j int, flags uint32, casid uint64, val []byte) {
		off := len(sc.bufs[n])
		sc.bufs[n] = append(sc.bufs[n], val...)
		sc.refs[group[j]] = valRef{hit: true, flags: flags, casid: casid, node: n, off: off, n: len(val)}
	}
	sc.errs[n] = cl.call(cl.pools[n], func(c *kvproto.ReconnectClient) error {
		if sc.kind == legGets {
			return c.MultiGets(sc.keys[n], fill)
		}
		return c.MultiGet(sc.keys[n], func(j int, flags uint32, val []byte) { fill(j, flags, 0, val) })
	})
}

// subSet runs node n's share of a set run: its sets, sync and replica
// copies in request order, pipelined on one pooled connection. Like
// subGet it writes only node n's entries. A checkout refused because
// the node is ejected fails every set of the leg with ErrNodeDown.
func (cl *Cluster) subSet(sc *scatter, n int) {
	sets := sc.sets[n]
	if cap(sc.setErrs[n]) < len(sets) {
		sc.setErrs[n] = make([]error, len(sets), cap(sets))
	}
	errs := sc.setErrs[n][:len(sets)]
	sc.setErrs[n] = errs
	if err := cl.call(cl.pools[n], func(c *kvproto.ReconnectClient) error { return c.SetRun(sets, errs) }); err == ErrNodeDown {
		for j := range errs {
			errs[j] = err
		}
	}
}
