// Package adaptivekv is an in-memory key-value cache whose replacement
// behavior is governed by the paper's adaptive scheme (Subramanian,
// Smaragdakis, Loh — MICRO 2006), lifted from simulation into a live
// concurrent data structure.
//
// The cache is organized as N independent lock-striped shards. Each shard
// is a set-associative array of key-value entries whose replacement
// decisions are delegated to an internal/core decision engine: by default
// SBAR over an LRU/LFU component pair, so a handful of leader sets per
// shard carry shadow directories and miss history while follower sets obey
// the shard's global winner — the Section 4.7 configuration whose
// bookkeeping overhead the paper puts at 0.09–0.16% of cache storage.
// Any component pair (or more) from internal/policy can be substituted,
// as can the full per-set adaptive scheme or a single fixed policy.
//
// Keys are hashed once to 64 bits; the top bits select the shard, the low
// bits the set within the shard, and the full hash is the directory tag.
// Distinct keys whose 64-bit hashes collide are treated as the same cache
// slot: a Set of one overwrites the other (a legal eviction) and a Get of
// the absent one misses. Every such divergence between the engine's view
// (a tag hit) and user-visible behavior (a key miss) is surfaced in
// Stats.HashCollisions. With the default hashers the probability of any
// collision among a million resident keys is below 1e-7.
//
// # Read-side scaling
//
// The adaptive policy mutates recency/frequency/shadow state on every
// hit, which would serialize all readers on the shard lock. Instead, by
// default Get runs optimistically: it scans an atomic mirror of the set's
// tags with no lock, confirms a match under that set's read lock (writers
// lock only the set they publish to), and resolves the value without
// touching the engine, then pushes a pending access record into a
// per-shard ring. The next mutation on the shard (or a ¾-full ring)
// drains the ring into the engine in one batch, so the engine still sees
// every access — leader-set learning and the paper's guarantee are
// preserved with bounded staleness. Config.StrictOrder disables the
// optimistic path for byte-identical serial determinism, and Stats
// reports the fastpath/fallback/drop counters. See DESIGN.md §11.
//
// Get and Set are allocation-free on the hit path; the hot-path regression
// harness (cmd/benchregress) enforces this.
package adaptivekv

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/storage"
)

// Mode selects how a shard's replacement decisions are made.
type Mode string

const (
	// ModeSBAR (the default) runs the set-sampling adaptive variant:
	// leader sets carry the full machinery, follower sets obey the global
	// winner.
	ModeSBAR Mode = "sbar"
	// ModeAdaptive runs the full per-set adaptive scheme (paper Algorithm
	// 1) on every set — the strongest guarantee, the highest overhead.
	ModeAdaptive Mode = "adaptive"
	// ModeSingle pins every set to the first (only) component policy; use
	// it for pure-LRU / pure-LFU baselines.
	ModeSingle Mode = "single"
)

// Config shapes a Cache. Zero values select the defaults noted per field.
type Config struct {
	Shards int // lock stripes; power of two; default 8
	Sets   int // sets per shard; power of two; default 256
	Ways   int // entries per set; default 8

	Mode       Mode     // default ModeSBAR
	Components []string // internal/policy names; default {"LRU", "LFU"}

	// LeaderSets is the number of sampled leader sets per shard in
	// ModeSBAR (default core.DefaultLeaderSets, clamped to Sets).
	LeaderSets int

	// ShadowTagBits stores only the low n bits of each tag in the shadow
	// directories (default 8, the paper's recommendation; negative selects
	// full tags).
	ShadowTagBits int

	// StrictOrder disables the optimistic read path: every Get takes the
	// shard lock and updates the engine inline, so a serial op sequence
	// produces byte-identical engine state and stats on every run.
	// Deterministic replay/determinism tests set this; servers should not.
	StrictOrder bool

	// PendingRing is the per-shard pending-access ring size in records
	// (power of two ≥ 8; default 1024). Larger rings tolerate longer
	// read-only streaks before the ¾-full self-drain; a full ring drops
	// records (counted in Stats.PendingHitsDropped) rather than block.
	PendingRing int

	// SweepInterval paces the TTL sweeper (default 100ms): each tick
	// advances the coarse expiry clock and sweeps one shard, so a full
	// pass over the cache takes Shards ticks. The sweeper starts lazily
	// on the first SetTTL with a nonzero deadline; a cache that never
	// stores a TTL never runs it.
	SweepInterval time.Duration
}

// normalized fills defaults and validates.
func (c Config) normalized() Config {
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Sets == 0 {
		c.Sets = 256
	}
	if c.Ways == 0 {
		c.Ways = 8
	}
	if c.Mode == "" {
		c.Mode = ModeSBAR
	}
	if len(c.Components) == 0 {
		if c.Mode == ModeSingle {
			c.Components = []string{"LRU"}
		} else {
			c.Components = []string{"LRU", "LFU"}
		}
	}
	if c.LeaderSets == 0 {
		c.LeaderSets = core.DefaultLeaderSets
	}
	if c.LeaderSets > c.Sets {
		c.LeaderSets = c.Sets
	}
	if c.ShadowTagBits == 0 {
		c.ShadowTagBits = 8
	}
	if c.PendingRing == 0 {
		c.PendingRing = 1024
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = 100 * time.Millisecond
	}
	if c.Shards <= 0 || c.Shards&(c.Shards-1) != 0 {
		panic(fmt.Sprintf("adaptivekv: Shards %d is not a positive power of two", c.Shards))
	}
	if c.Shards > 1<<16 {
		panic(fmt.Sprintf("adaptivekv: Shards %d exceeds 65536", c.Shards))
	}
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		panic(fmt.Sprintf("adaptivekv: Sets %d is not a positive power of two", c.Sets))
	}
	if c.Sets > 1<<30 {
		panic(fmt.Sprintf("adaptivekv: Sets %d exceeds %d", c.Sets, 1<<30))
	}
	if c.Ways <= 0 {
		panic("adaptivekv: Ways must be positive")
	}
	if c.PendingRing < 8 || c.PendingRing&(c.PendingRing-1) != 0 {
		panic(fmt.Sprintf("adaptivekv: PendingRing %d is not a power of two ≥ 8", c.PendingRing))
	}
	if c.Mode == ModeSingle && len(c.Components) != 1 {
		panic("adaptivekv: ModeSingle takes exactly one component")
	}
	if c.Mode != ModeSingle && len(c.Components) < 2 {
		panic("adaptivekv: adaptive modes need at least two components")
	}
	return c
}

// buildPolicy constructs one shard's replacement policy.
func (c Config) buildPolicy() cache.Policy {
	switch c.Mode {
	case ModeSingle:
		return policy.MustByName(c.Components[0])()
	case ModeAdaptive, ModeSBAR:
		comps := make([]core.ComponentFactory, len(c.Components))
		for i, name := range c.Components {
			comps[i] = core.ComponentFactory(policy.MustByName(name))
		}
		var opts []core.Option
		if c.ShadowTagBits > 0 {
			opts = append(opts, core.WithShadowTagBits(c.ShadowTagBits))
		}
		if c.Mode == ModeAdaptive {
			return core.NewAdaptive(comps, opts...)
		}
		return core.NewSBAR(comps,
			core.WithLeaderSets(c.LeaderSets),
			core.WithLeaderOptions(opts...))
	default:
		panic(fmt.Sprintf("adaptivekv: unknown mode %q", c.Mode))
	}
}

// Stats is a point-in-time snapshot of one shard's (or the whole cache's)
// operation counters.
type Stats struct {
	Gets       uint64
	GetHits    uint64
	Stores     uint64
	StoreHits  uint64 // updates of an already-resident key
	Deletes    uint64
	DeleteHits uint64
	Evictions  uint64 // capacity evictions decided by the policy
	// PolicySwitches counts SBAR global-winner changes (0 in other modes):
	// how often the shard actually changed its mind about which component
	// policy to imitate.
	PolicySwitches uint64
	// HashCollisions counts operations where the directory matched a tag
	// but the resident entry held a *different* key — a 64-bit hash
	// collision between distinct keys. The operation is reported to the
	// caller as a miss, yet the engine has already recorded a hit and
	// touched the colliding entry's recency/frequency, so engine-level
	// stats diverge from user-visible behavior by exactly this count.
	HashCollisions uint64
	// OptimisticFastpath counts optimistic Gets that never waited on a
	// lock: a lock-free miss, or a hit confirmed under a set read lock
	// taken at the first try. It is Gets − OptimisticFallback on an
	// optimistic cache and 0 under StrictOrder.
	OptimisticFastpath uint64
	// OptimisticFallback counts optimistic Gets whose TryRLock on their
	// set failed — a writer was publishing to that set — and that then
	// waited for the read lock.
	OptimisticFallback uint64
	// PendingHitsDropped counts deferred access records discarded because
	// the pending ring was full. Drops lose a little adaptive signal
	// (never data); readers are never blocked to preserve it.
	PendingHitsDropped uint64
	// Expired counts entries vacated because their TTL deadline had
	// passed — lazily by a Get/Set/Delete that found the corpse, or by
	// the active sweeper. Each expired entry is counted exactly once, at
	// the moment its slot is reclaimed; an optimistic read that merely
	// observes an expired entry (and reports a miss) does not count it.
	Expired uint64
	// SweepRemoved is the subset of Expired reclaimed by the active
	// sweeper rather than lazily on an access path.
	SweepRemoved uint64
	// CAS outcome counters. CompareAndSwap operations are tallied here
	// and nowhere else — they do not bump Gets or Stores — so the
	// "service-time histogram count == engine op count" invariants the
	// soak harness asserts stay exact per op family.
	CasStored    uint64 // swaps applied: the presented unique matched
	CasConflicts uint64 // unique mismatch on a live entry (EXISTS)
	CasMisses    uint64 // key absent, expired, or hash-collided (NOT_FOUND)
}

// Add accumulates o into s (summing per-shard snapshots into a total).
func (s *Stats) Add(o Stats) {
	s.Gets += o.Gets
	s.GetHits += o.GetHits
	s.Stores += o.Stores
	s.StoreHits += o.StoreHits
	s.Deletes += o.Deletes
	s.DeleteHits += o.DeleteHits
	s.Evictions += o.Evictions
	s.PolicySwitches += o.PolicySwitches
	s.HashCollisions += o.HashCollisions
	s.OptimisticFastpath += o.OptimisticFastpath
	s.OptimisticFallback += o.OptimisticFallback
	s.PendingHitsDropped += o.PendingHitsDropped
	s.Expired += o.Expired
	s.SweepRemoved += o.SweepRemoved
	s.CasStored += o.CasStored
	s.CasConflicts += o.CasConflicts
	s.CasMisses += o.CasMisses
}

// CasOps returns the total CompareAndSwap operations in the snapshot.
func (s Stats) CasOps() uint64 { return s.CasStored + s.CasConflicts + s.CasMisses }

// HitRatio returns GetHits/Gets, or 0 for an unused cache.
func (s Stats) HitRatio() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.GetHits) / float64(s.Gets)
}

// entry is one resident key-value pair. deadline is the unix-nanosecond
// TTL deadline, 0 for entries that never expire; expiry is judged
// against the cache's coarse sweeper-updated clock, never a syscall.
// casid is the entry's compare-and-swap unique: every store path draws a
// fresh value from the shard's monotonic counter, so any overwrite —
// plain set, batch set, or winning cas — invalidates outstanding
// uniques. IDs start at 1; 0 is never issued.
type entry[K comparable, V any] struct {
	key      K
	val      V
	deadline int64
	casid    uint64
}

// shard is one lock stripe. Two kinds of lock split its state:
//
//   - mu is the authority lock: the decision engine, the writer-owned
//     counters, the resident count, and the pending-ring consumer. All
//     mutations (Set, Delete, batch variants) and all engine reads
//     (ShardStats, Winner) hold it.
//   - locks[set] orders the publication of that set's entries and
//     mirror words against that set's optimistic readers: writers
//     publish under its write lock, readers copy a matched entry under
//     its read lock. Ring drains touch only the engine, so they run
//     under mu alone and never stall readers.
//
// Lock order is mu → locks[set]; a set lock is never held across an mu
// acquisition (notePending's drain uses TryLock after the read lock is
// released), and no one holds two set locks at once.
//
// rtags mirrors the engine's directory tags as atomics, packed tag<<1|1
// (0 = invalid way), so lock-free readers never touch engine memory.
// The trailing pad keeps two shards' hot fields off one cache line.
type shard[K comparable, V any] struct {
	mu  sync.Mutex
	eng *core.Engine

	locks   []sync.RWMutex // one per set
	entries []entry[K, V]  // set*ways+way
	rtags   []atomic.Uint64

	ring    *pendingRing // nil under StrictOrder
	drainAt uint64       // ring occupancy that triggers a reader-side drain

	// Writer-owned counters, guarded by mu.
	stores, storeHits uint64
	deletes, delHits  uint64
	expired           uint64 // TTL vacates, lazy + swept; counted at reclaim
	sweepRemoved      uint64 // subset of expired reclaimed by the sweeper
	resident          int    // maintained incrementally; see Len

	// casSeq is the shard's monotonic cas-unique source: pre-incremented
	// on every store so IDs start at 1 and never repeat within a shard.
	// Guarded by mu, like the cas outcome counters below.
	casSeq                             uint64
	casStored, casConflicts, casMisses uint64

	// Reader-shared counters, incremented outside mu (fastpath is derived).
	gets, getHits atomic.Uint64
	collisions    atomic.Uint64
	fallback      atomic.Uint64
	dropped       atomic.Uint64

	_ [64]byte
}

// Cache is the sharded adaptive key-value cache. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	cfg        Config
	shards     []shard[K, V]
	hash       func(K) uint64
	setMask    uint64
	setShift   uint
	ways       int
	optimistic bool

	// TTL machinery. clock is the coarse expiry clock (unix nanos),
	// seeded at New and advanced only by sweeper ticks, so the hot-path
	// deadline check is one atomic load and a compare — never a syscall.
	// ttlInUse flips true on the first SetTTL with a nonzero deadline and
	// gates the TTL-aware branches on the locked paths, keeping a cache
	// that never stores a TTL on its original code paths.
	clock       atomic.Int64
	ttlInUse    atomic.Bool
	sweepStart  sync.Once
	sweepStop   chan struct{}
	closeOnce   sync.Once
	sweepPasses atomic.Uint64
}

// Option configures a Cache at construction.
type Option[K comparable, V any] func(*Cache[K, V])

// WithHasher overrides the key hash function. The hash must be
// deterministic and well-mixed across all 64 bits; New applies no further
// mixing to custom hashers' output beyond its own finalizer.
func WithHasher[K comparable, V any](h func(K) uint64) Option[K, V] {
	return func(c *Cache[K, V]) { c.hash = h }
}

// New builds a cache for the given configuration. It panics on an invalid
// configuration or on a key type with no default hasher (strings and
// integer kinds are built in; other comparable types need WithHasher).
func New[K comparable, V any](cfg Config, opts ...Option[K, V]) *Cache[K, V] {
	cfg = cfg.normalized()
	c := &Cache[K, V]{
		cfg:       cfg,
		shards:    make([]shard[K, V], cfg.Shards),
		setMask:   uint64(cfg.Sets - 1),
		ways:      cfg.Ways,
		sweepStop: make(chan struct{}),
	}
	c.clock.Store(time.Now().UnixNano())
	for s := cfg.Sets; s > 1; s >>= 1 {
		c.setShift++
	}
	for _, o := range opts {
		o(c)
	}
	if c.hash == nil {
		c.hash = hasherFor[K]()
		if c.hash == nil {
			panic(fmt.Sprintf("adaptivekv: no default hasher for key type %T; use WithHasher", *new(K)))
		}
	}
	// With Sets == 1 the tag spans all 64 hash bits and cannot carry the
	// mirror's validity bit; fall back to locked reads.
	c.optimistic = !cfg.StrictOrder && c.setShift > 0
	g := core.EngineGeometry(cfg.Sets, cfg.Ways)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.eng = core.NewEngine(g, cfg.buildPolicy())
		sh.locks = make([]sync.RWMutex, cfg.Sets)
		sh.entries = make([]entry[K, V], cfg.Sets*cfg.Ways)
		sh.rtags = make([]atomic.Uint64, cfg.Sets*cfg.Ways)
		if c.optimistic {
			sh.ring = newPendingRing(cfg.PendingRing)
			sh.drainAt = uint64(cfg.PendingRing) * 3 / 4
		}
	}
	return c
}

// locate hashes key to (shard, set, tag). The shard comes from the top
// bits and the set from the bottom bits so the two indices stay
// independent, and — exactly as cache.Cache.decompose does for block
// addresses — the set bits are shifted out of the tag. Keeping them in
// would be harmless for the full-tag directory but fatal for partial
// shadow tags: the adaptive policy masks the tag's low bits, and if those
// repeat the set index, every tag in a set shares them and the shadow
// arrays degenerate into always-hit, starving the selector of signal.
// (set, tag) ↔ h is still a bijection, so key discrimination is unchanged.
func (c *Cache[K, V]) locate(key K) (sh *shard[K, V], set int, tag uint64) {
	return c.place(mix64(c.hash(key)))
}

// place splits a mixed key hash into (shard, set, tag), as locate does.
func (c *Cache[K, V]) place(h uint64) (sh *shard[K, V], set int, tag uint64) {
	return &c.shards[(h>>48)&uint64(len(c.shards)-1)], int(h & c.setMask), h >> c.setShift
}

// Get returns the value cached under key. The access updates the adaptive
// machinery (recency, frequency, shadow directories, miss history) —
// inline under StrictOrder, deferred through the pending ring otherwise —
// but a miss does not reserve space: read-through callers populate via
// Set.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	v, _, ok := c.GetCas(key)
	return v, ok
}

// GetCas is Get returning, additionally, the entry's cas unique — the
// token a later CompareAndSwap must present. On the optimistic path the
// unique is read under the same set read lock as the value, so the
// (value, unique) pair is always coherent. A miss returns unique 0,
// which no resident entry ever carries.
func (c *Cache[K, V]) GetCas(key K) (v V, id uint64, ok bool) {
	sh, set, tag := c.locate(key)
	sh.gets.Add(1)
	if c.optimistic {
		var waited bool
		v, id, ok, waited = c.getOptimistic(sh, set, tag, key)
		if waited {
			sh.fallback.Add(1)
		}
		c.notePending(sh, set, tag)
	} else {
		sh.mu.Lock()
		v, id, ok = c.lookupLocked(sh, set, tag, key)
		sh.mu.Unlock()
	}
	if ok {
		sh.getHits.Add(1)
	}
	return v, id, ok
}

// expiredDeadline reports whether a TTL deadline has passed per the
// coarse clock: one branch for the common deadline-0 case, one atomic
// load otherwise. Never a syscall, never an allocation.
func (c *Cache[K, V]) expiredDeadline(d int64) bool {
	return d != 0 && c.clock.Load() >= d
}

// expireLocked vacates an expired entry: engine delete, mirror and
// entry invalidation, and the exactly-once Expired count. Caller holds
// sh.mu and has verified the slot holds the expired key.
func (c *Cache[K, V]) expireLocked(sh *shard[K, V], set int, tag uint64, slot int) {
	sh.eng.Delete(set, tag)
	sh.publish(set, slot, entry[K, V]{}, 0)
	sh.expired++
	sh.resident--
}

// reapLocked vacates key's entry if it is a TTL corpse, so the engine
// access that follows records the miss the caller sees. Caller holds sh.mu.
func (c *Cache[K, V]) reapLocked(sh *shard[K, V], set int, tag uint64, key K) {
	if !c.ttlInUse.Load() {
		return
	}
	if way, ok := sh.eng.Find(set, tag); ok {
		slot := set*c.ways + way
		if e := &sh.entries[slot]; e.key == key && c.expiredDeadline(e.deadline) {
			c.expireLocked(sh, set, tag, slot)
		}
	}
}

// lookupLocked is the authoritative Get body: engine lookup inline plus
// key confirmation; the caller counts the hit. Caller holds sh.mu. When
// TTLs are in play, an expired resident entry is vacated first and the
// engine then records a genuine miss — leader-set learning sees the
// access exactly as if the entry had never been there.
func (c *Cache[K, V]) lookupLocked(sh *shard[K, V], set int, tag uint64, key K) (V, uint64, bool) {
	c.reapLocked(sh, set, tag, key)
	if way, ok := sh.eng.Lookup(set, tag); ok {
		e := &sh.entries[set*c.ways+way]
		if e.key == key {
			return e.val, e.casid, true
		}
		// 64-bit hash collision between distinct keys: a user-visible
		// miss, but the engine has already counted a hit and promoted
		// the colliding entry. Record the divergence.
		sh.collisions.Add(1)
	}
	var zero V
	return zero, 0, false
}

// probeShared resolves a Get against the set's tag mirror and entries
// (the caller counts the hit). Caller holds sh.locks[set], which excludes
// the set's publications, so the plain entry reads are race-free.
func (c *Cache[K, V]) probeShared(sh *shard[K, V], set int, tag uint64, key K) (V, uint64, bool) {
	base := set * c.ways
	packed := tag<<1 | 1
	for w := 0; w < c.ways; w++ {
		if sh.rtags[base+w].Load() != packed {
			continue
		}
		e := &sh.entries[base+w]
		if e.key == key {
			if c.expiredDeadline(e.deadline) {
				// Expired corpse: a miss to the caller. Readers hold only a
				// set read lock, so a writer, the ring drain or the sweeper
				// reclaims the slot (and counts Expired) later.
				break
			}
			return e.val, e.casid, true
		}
		sh.collisions.Add(1)
		break // a tag occupies at most one way
	}
	var zero V
	return zero, 0, false
}

// getOptimistic is the scalable read path. A lock-free scan of the set's
// tag mirror that finds no match is a miss, with no lock and no retry:
// the engine updates a resident tag in place, so a key resident for the
// whole scan keeps its way and its mirror word and the scan sees it, and
// a key that is not was absent at some instant during the scan. A match
// is confirmed under the set's read lock, which only a publication to
// the same set excludes; waited reports that TryRLock failed and the
// reader waited for that publication.
func (c *Cache[K, V]) getOptimistic(sh *shard[K, V], set int, tag uint64, key K) (v V, id uint64, ok, waited bool) {
	base := set * c.ways
	packed := tag<<1 | 1
	for w := 0; w < c.ways; w++ {
		if sh.rtags[base+w].Load() == packed {
			l := &sh.locks[set]
			if !l.TryRLock() {
				waited = true
				l.RLock()
			}
			v, id, ok = c.probeShared(sh, set, tag, key)
			l.RUnlock()
			return v, id, ok, waited
		}
	}
	return v, 0, false, false
}

// notePending queues the access for deferred engine replay and self-
// drains when the ring is running hot and the shard lock happens to be
// free. A full ring drops the record — adaptive signal is best-effort,
// reader progress is not.
func (c *Cache[K, V]) notePending(sh *shard[K, V], set int, tag uint64) {
	if !sh.ring.push(uint32(set), tag) {
		sh.dropped.Add(1)
		return
	}
	c.maybeDrain(sh)
}

// maybeDrain opportunistically drains a ≥¾-full ring without ever
// blocking: contended shards are drained by their writers anyway.
func (c *Cache[K, V]) maybeDrain(sh *shard[K, V]) {
	if sh.ring.occupancy() >= sh.drainAt && sh.mu.TryLock() {
		c.drainPending(sh)
		sh.mu.Unlock()
	}
}

// drainPending replays queued access records into the decision engine.
// Caller holds sh.mu. Replay uses Lookup — the fill-free probe — which
// updates recency/frequency/shadow/history state but never moves
// directory lines, so non-TTL drains take no set lock and never stall
// readers. With TTLs in play each record first checks the resident
// entry's deadline: an expired corpse is vacated (the one set lock the
// drain ever takes) *before* the replay, so the engine records the
// miss the optimistic reader actually experienced rather than a hit on
// a dead entry.
func (c *Cache[K, V]) drainPending(sh *shard[K, V]) {
	r := sh.ring
	if r == nil {
		return
	}
	ttl := c.ttlInUse.Load()
	for {
		set, tag, ok := r.pop()
		if !ok {
			break
		}
		if ttl {
			if way, found := sh.eng.Find(int(set), tag); found {
				slot := int(set)*c.ways + way
				if c.expiredDeadline(sh.entries[slot].deadline) {
					c.expireLocked(sh, int(set), tag, slot)
				}
			}
		}
		sh.eng.Lookup(int(set), tag)
	}
	r.headPub.Store(r.head)
}

// publish installs slot's entry and tag mirror under the write lock of
// set, the set slot belongs to. Caller holds sh.mu; packed is tag<<1|1,
// or 0 to invalidate.
func (sh *shard[K, V]) publish(set, slot int, e entry[K, V], packed uint64) {
	l := &sh.locks[set]
	l.Lock()
	sh.entries[slot] = e
	sh.rtags[slot].Store(packed)
	l.Unlock()
}

// Set caches val under key with no expiry, updating in place when key is
// resident and otherwise filling per the shard's replacement decision —
// possibly evicting the entry the imitated component policy would evict.
// Every mutation first drains the pending ring, so the engine decides
// with all observed accesses applied.
func (c *Cache[K, V]) Set(key K, val V) { c.SetTTL(key, val, 0) }

// SetTTL is Set with a TTL: deadline is the unix-nanosecond time after
// which the entry reads as a miss (0 = never expires). The first nonzero
// deadline stored starts the background sweeper. Overwriting an expired
// resident entry counts as Expired (the slot was logically vacant), not
// as a store hit.
func (c *Cache[K, V]) SetTTL(key K, val V, deadline int64) {
	if deadline != 0 {
		c.ensureTTL()
	}
	sh, set, tag := c.locate(key)
	sh.mu.Lock()
	c.drainPending(sh)
	c.storeLocked(sh, set, tag, key, val, deadline)
	sh.mu.Unlock()
}

// storeLocked is the body of every store: the engine upsert, the store
// accounting, a fresh cas unique and the publication. Caller holds sh.mu
// and has drained the ring.
func (c *Cache[K, V]) storeLocked(sh *shard[K, V], set int, tag uint64, key K, val V, deadline int64) {
	sh.stores++
	res := sh.eng.Store(set, tag)
	slot := set*c.ways + res.Way
	if res.Hit {
		old := &sh.entries[slot]
		switch {
		case c.expiredDeadline(old.deadline):
			// Overwriting a corpse: the new value fills a logically
			// vacant slot. Count the expiry here — this store is the
			// reclaim — and not a store hit.
			sh.expired++
		case old.key != key:
			// Tag hit on a different key: the store legally overwrites
			// the colliding entry, but the engine saw an in-place update.
			sh.storeHits++
			sh.collisions.Add(1)
		default:
			sh.storeHits++
		}
	} else if !res.Evicted {
		sh.resident++ // filled a previously invalid way
	}
	sh.casSeq++
	sh.publish(set, slot, entry[K, V]{key: key, val: val, deadline: deadline, casid: sh.casSeq}, tag<<1|1)
}

// CasResult is the outcome of a CompareAndSwap.
type CasResult uint8

const (
	// CasStored: the presented unique matched and the value was swapped.
	CasStored CasResult = iota
	// CasExists: the key is resident but its unique differs — a
	// concurrent write won the race since the GetCas that produced the
	// token. The caller re-reads and retries.
	CasExists
	// CasNotFound: the key is absent (never stored, evicted, deleted, or
	// TTL-expired). Memcached semantics: an expired entry is
	// indistinguishable from one that was never there.
	CasNotFound
)

// CompareAndSwap atomically replaces key's value iff the entry's cas
// unique still equals casid (obtained from a prior GetCas); deadline is
// the new TTL deadline, as in SetTTL. A TTL corpse is vacated first and
// reported CasNotFound, and the engine sees the op as one real access —
// a hit when the key is live, a recorded miss otherwise — so adaptive
// learning observes cas traffic exactly like get traffic. A winning swap
// updates the entry in place (no directory movement, no eviction) and
// stamps a fresh unique. The op counts only into the Cas* stats, never
// Gets or Stores.
func (c *Cache[K, V]) CompareAndSwap(key K, val V, casid uint64, deadline int64) CasResult {
	if deadline != 0 {
		c.ensureTTL()
	}
	sh, set, tag := c.locate(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c.drainPending(sh)
	c.reapLocked(sh, set, tag, key)
	way, ok := sh.eng.Lookup(set, tag) // the op's one real engine access
	if !ok {
		sh.casMisses++
		return CasNotFound
	}
	slot := set*c.ways + way
	e := &sh.entries[slot]
	if e.key != key {
		// Hash collision: user-visible NOT_FOUND, engine already counted
		// a hit on the colliding entry (same divergence as Get).
		sh.collisions.Add(1)
		sh.casMisses++
		return CasNotFound
	}
	if e.casid != casid {
		sh.casConflicts++
		return CasExists
	}
	sh.casStored++
	sh.casSeq++
	sh.publish(set, slot, entry[K, V]{key: key, val: val, deadline: deadline, casid: sh.casSeq}, tag<<1|1)
	return CasStored
}

// Delete removes key, reporting whether it was resident. The freed slot
// becomes fill-preferred within its set. Deleting an expired entry
// reclaims the slot but reports NOT_FOUND — the value was already dead.
func (c *Cache[K, V]) Delete(key K) bool {
	sh, set, tag := c.locate(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c.drainPending(sh)
	sh.deletes++
	way, ok := sh.eng.Find(set, tag)
	if !ok {
		return false
	}
	slot := set*c.ways + way
	if sh.entries[slot].key != key {
		sh.collisions.Add(1) // tag present but owned by a colliding key
		return false
	}
	if c.expiredDeadline(sh.entries[slot].deadline) {
		c.expireLocked(sh, set, tag, slot)
		return false
	}
	sh.eng.Delete(set, tag)
	sh.publish(set, slot, entry[K, V]{}, 0) // release references
	sh.delHits++
	sh.resident--
	return true
}

// Flush removes every resident entry and returns how many were dropped.
// It locks one shard at a time (like the stats collectors), so
// operations on other shards proceed while a shard is being emptied. A
// flush racing a writer keeps either nothing or only entries written
// after that shard was swept; a reader racing it sees each set either
// full or flushed. Nothing written before Flush started survives it,
// which is all a cache needs. Entries leave through the engine's Delete
// path — each freed way becomes fill-preferred within its set — so the
// learned adaptive state (shadow directories, miss history, SBAR winner)
// survives and the refilled cache re-converges without relearning from
// scratch. That asymmetry is deliberate: flushing serves reintegration
// safety ("cold is safe, stale is not"), and coming back cold in data
// but warm in policy is the best legal restart.
func (c *Cache[K, V]) Flush() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		c.drainPending(sh)
		removed := c.vacateWhere(sh, func(*entry[K, V]) bool { return true })
		sh.resident -= removed
		sh.mu.Unlock()
		total += removed
	}
	return total
}

// ensureTTL flips the cache into TTL mode and starts the sweeper,
// exactly once for the cache's lifetime.
func (c *Cache[K, V]) ensureTTL() {
	c.sweepStart.Do(func() {
		c.ttlInUse.Store(true)
		c.clock.Store(time.Now().UnixNano())
		go c.sweepLoop()
	})
}

// sweepLoop is the low-duty-cycle active sweeper: each tick advances the
// coarse expiry clock and reclaims expired entries from one shard, round
// robin, so dead items stop pinning memory even when nothing reads them.
// Cache.Close stops it.
func (c *Cache[K, V]) sweepLoop() {
	t := time.NewTicker(c.cfg.SweepInterval)
	defer t.Stop()
	i := 0
	for {
		select {
		case <-c.sweepStop:
			return
		case <-t.C:
			// Re-check stop first: with both channels ready the outer
			// select picks randomly, and Close must win promptly.
			select {
			case <-c.sweepStop:
				return
			default:
			}
			c.clock.Store(time.Now().UnixNano())
			c.sweepShard(i)
			i = (i + 1) % len(c.shards)
		}
	}
}

// vacateWhere removes every resident entry of sh that drop selects and
// returns how many it removed, one set write lock at a time. Caller
// holds sh.mu.
func (c *Cache[K, V]) vacateWhere(sh *shard[K, V], drop func(*entry[K, V]) bool) int {
	removed := 0
	for set := range sh.locks {
		sh.locks[set].Lock()
		for slot := set * c.ways; slot < (set+1)*c.ways; slot++ {
			e := &sh.entries[slot]
			if sh.rtags[slot].Load() == 0 || !drop(e) {
				continue
			}
			// Recompute the tag from the resident key rather than
			// unpacking the mirror word: with Sets == 1 the packed form
			// tag<<1|1 has dropped the tag's top bit.
			_, _, tag := c.locate(e.key)
			sh.eng.Delete(set, tag)
			sh.rtags[slot].Store(0)
			*e = entry[K, V]{} // release references
			removed++
		}
		sh.locks[set].Unlock()
	}
	return removed
}

// sweepShard reclaims shard i's expired entries under TryLock — a busy
// shard is skipped rather than contended (its own writers and drains
// expire lazily anyway) — through Flush's slot walk. Swept entries count
// as both Expired and SweepRemoved.
func (c *Cache[K, V]) sweepShard(i int) {
	sh := &c.shards[i]
	if !sh.mu.TryLock() {
		return
	}
	defer sh.mu.Unlock()
	now := c.clock.Load()
	removed := c.vacateWhere(sh, func(e *entry[K, V]) bool {
		return e.deadline != 0 && now >= e.deadline
	})
	sh.resident -= removed
	sh.expired += uint64(removed)
	sh.sweepRemoved += uint64(removed)
	c.sweepPasses.Add(1)
}

// SweepPasses returns how many shard sweeps the TTL sweeper has
// completed (0 until the first SetTTL with a deadline starts it).
func (c *Cache[K, V]) SweepPasses() uint64 { return c.sweepPasses.Load() }

// Close stops the TTL sweeper, if it ever started. Idempotent; the
// cache remains usable afterwards (minus active sweeping), so Close is
// safe to call during any shutdown ordering.
func (c *Cache[K, V]) Close() {
	c.closeOnce.Do(func() { close(c.sweepStop) })
}

// Deadline reports key's TTL deadline in unix nanoseconds (0 = never
// expires) and whether the key is resident, without recording an access.
func (c *Cache[K, V]) Deadline(key K) (int64, bool) {
	sh, set, tag := c.locate(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	way, ok := sh.eng.Find(set, tag)
	if !ok {
		return 0, false
	}
	e := &sh.entries[set*c.ways+way]
	if e.key != key {
		return 0, false
	}
	return e.deadline, true
}

// Len returns the number of resident entries. Each shard maintains its
// occupancy incrementally (a fill of an invalid way increments, a delete
// hit decrements, an eviction-replace is net zero), so Len takes one
// shard lock at a time and reads a single integer — it never walks sets
// and never holds more than one lock at once, making it safe for
// per-scrape use.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		n += c.ShardOccupancy(i)
	}
	return n
}

// ShardOccupancy returns the number of resident entries in shard i.
func (c *Cache[K, V]) ShardOccupancy(i int) int {
	sh := &c.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.resident
}

// Capacity returns the maximum number of resident entries.
func (c *Cache[K, V]) Capacity() int {
	return c.cfg.Shards * c.cfg.Sets * c.cfg.Ways
}

// Config returns the normalized configuration.
func (c *Cache[K, V]) Config() Config { return c.cfg }

// Shards returns the number of lock stripes.
func (c *Cache[K, V]) Shards() int { return len(c.shards) }

// ShardStats returns a snapshot of shard i's counters.
func (c *Cache[K, V]) ShardStats(i int) Stats {
	sh := &c.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fallback := sh.fallback.Load() // first: each wait counts after its get
	gets, fastpath := sh.gets.Load(), uint64(0)
	if c.optimistic {
		fastpath = gets - fallback
	}
	return Stats{
		Gets:               gets,
		GetHits:            sh.getHits.Load(),
		Stores:             sh.stores,
		StoreHits:          sh.storeHits,
		Deletes:            sh.deletes,
		DeleteHits:         sh.delHits,
		Evictions:          sh.eng.Stats().Evictions,
		PolicySwitches:     sh.eng.PolicySwitches(),
		HashCollisions:     sh.collisions.Load(),
		OptimisticFastpath: fastpath,
		OptimisticFallback: fallback,
		PendingHitsDropped: sh.dropped.Load(),
		Expired:            sh.expired,
		SweepRemoved:       sh.sweepRemoved,
		CasStored:          sh.casStored,
		CasConflicts:       sh.casConflicts,
		CasMisses:          sh.casMisses,
	}
}

// Stats returns the sum of all shards' counters.
func (c *Cache[K, V]) Stats() Stats {
	var total Stats
	for i := range c.shards {
		total.Add(c.ShardStats(i))
	}
	return total
}

// Winner returns shard i's current SBAR global winner (component index
// into Config.Components), or -1 outside ModeSBAR.
func (c *Cache[K, V]) Winner(i int) int {
	sh := &c.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.eng.Winner()
}

// Overhead returns the adaptive bookkeeping cost of one shard in bits,
// following the paper's SRAM accounting (internal/storage): shadow
// directory entries and history for the sampled sets in ModeSBAR, for
// every set in ModeAdaptive, zero in ModeSingle. OverheadPercent expresses
// it against the shard's conventional (data + main directory) storage —
// the figure the paper reports as 0.09–0.16% for SBAR.
func (c *Cache[K, V]) Overhead() storage.Bits {
	p := storage.DefaultParams(core.EngineGeometry(c.cfg.Sets, c.cfg.Ways))
	switch c.cfg.Mode {
	case ModeSingle:
		return 0
	case ModeAdaptive:
		return p.AdaptiveOverhead(len(c.cfg.Components), c.cfg.ShadowTagBits)
	default:
		return p.SBAROverhead(len(c.cfg.Components), c.cfg.LeaderSets, c.cfg.ShadowTagBits)
	}
}

// OverheadPercent returns Overhead as a percentage of a shard's
// conventional storage.
func (c *Cache[K, V]) OverheadPercent() float64 {
	p := storage.DefaultParams(core.EngineGeometry(c.cfg.Sets, c.cfg.Ways))
	return p.OverheadPercent(c.Overhead())
}
