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
// # Read path
//
// The adaptive policy mutates recency/frequency/shadow state on every
// hit, so every Get takes its shard's mutex and records the access in
// the engine inline, as the paper's cache does: shadow tags, miss
// history and the SBAR counters see each hit as it happens, and a serial
// op sequence produces the same engine state and stats on every run.
// Reads of different shards proceed in parallel; reads of one shard
// serialize with its writers. See DESIGN.md §11.
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

	// StrictOrder has no effect: every Get takes the shard lock and
	// updates the engine inline. It stays only because cmd/kvbench still
	// sets it; it goes when the benchmark stops naming it.
	StrictOrder bool

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
	// OptimisticFastpath, OptimisticFallback and PendingHitsDropped
	// always read 0: Gets have one path, under the shard lock. They stay
	// only because cmd/kvbench still reads them; they go when the
	// benchmark stops naming them.
	OptimisticFastpath uint64
	OptimisticFallback uint64
	PendingHitsDropped uint64
	// Expired counts entries vacated because their TTL deadline had
	// passed — lazily by a Get/Set/Delete/cas that found the corpse, or
	// by the active sweeper. Each expired entry is counted exactly once,
	// at the moment its slot is reclaimed.
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
// plain set or winning cas — invalidates outstanding uniques. IDs start
// at 1; 0 is never issued, and every vacate zeroes the entry, so a
// nonzero casid is what marks a slot occupied.
type entry[K comparable, V any] struct {
	key      K
	val      V
	deadline int64
	casid    uint64
}

// shard is one lock stripe: mu guards the decision engine, the entries
// and every counter, and every operation on the shard holds it. The
// trailing pad keeps two shards' hot fields off one cache line.
type shard[K comparable, V any] struct {
	mu      sync.Mutex
	eng     *core.Engine
	entries []entry[K, V] // set*ways+way

	gets, getHits     uint64
	stores, storeHits uint64
	deletes, delHits  uint64
	collisions        uint64
	expired           uint64 // TTL vacates, lazy + swept; counted at reclaim
	sweepRemoved      uint64 // subset of expired reclaimed by the sweeper
	resident          int    // maintained incrementally; see Len

	// casSeq is the shard's monotonic cas-unique source: pre-incremented
	// on every store so IDs start at 1 and never repeat within a shard.
	casSeq                             uint64
	casStored, casConflicts, casMisses uint64

	_ [64]byte
}

// Cache is the sharded adaptive key-value cache. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	cfg      Config
	shards   []shard[K, V]
	hash     func(K) uint64
	setMask  uint64
	setShift uint
	ways     int

	// TTL machinery. clock is the coarse expiry clock (unix nanos),
	// seeded at New and advanced only by sweeper ticks, so the hot-path
	// deadline check is one atomic load and a compare — never a syscall.
	// ttlInUse flips true on the first SetTTL with a nonzero deadline and
	// gates the TTL-aware branches on the access paths, keeping a cache
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
	g := core.EngineGeometry(cfg.Sets, cfg.Ways)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.eng = core.NewEngine(g, cfg.buildPolicy())
		sh.entries = make([]entry[K, V], cfg.Sets*cfg.Ways)
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
// machinery (recency, frequency, shadow directories, miss history) inline
// under the shard lock, but a miss does not reserve space: read-through
// callers populate via Set.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	v, _, ok := c.GetCas(key)
	return v, ok
}

// GetCas is Get returning, additionally, the entry's cas unique — the
// token a later CompareAndSwap must present. A miss returns unique 0,
// which no resident entry ever carries.
func (c *Cache[K, V]) GetCas(key K) (V, uint64, bool) {
	sh, set, tag := c.locate(key)
	sh.mu.Lock()
	v, id, ok := c.lookupLocked(sh, set, tag, key)
	sh.mu.Unlock()
	return v, id, ok
}

// expiredDeadline reports whether a TTL deadline has passed per the
// coarse clock: one branch for the common deadline-0 case, one atomic
// load otherwise. Never a syscall, never an allocation.
func (c *Cache[K, V]) expiredDeadline(d int64) bool {
	return d != 0 && c.clock.Load() >= d
}

// expireLocked vacates an expired entry: engine delete, entry
// invalidation, and the exactly-once Expired count. Caller holds sh.mu
// and has verified the slot holds the expired key.
func (c *Cache[K, V]) expireLocked(sh *shard[K, V], set int, tag uint64, slot int) {
	sh.eng.Delete(set, tag)
	sh.entries[slot] = entry[K, V]{}
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

// lookupLocked is the Get body: engine lookup inline, key confirmation
// and the get/hit counts. Caller holds sh.mu. When TTLs are in play, an
// expired resident entry is vacated first and the engine then records a
// genuine miss — leader-set learning sees the access exactly as if the
// entry had never been there.
func (c *Cache[K, V]) lookupLocked(sh *shard[K, V], set int, tag uint64, key K) (V, uint64, bool) {
	sh.gets++
	c.reapLocked(sh, set, tag, key)
	if way, ok := sh.eng.Lookup(set, tag); ok {
		e := &sh.entries[set*c.ways+way]
		if e.key == key {
			sh.getHits++
			return e.val, e.casid, true
		}
		// 64-bit hash collision between distinct keys: a user-visible
		// miss, but the engine has already counted a hit and promoted
		// the colliding entry. Record the divergence.
		sh.collisions++
	}
	var zero V
	return zero, 0, false
}

// Set caches val under key with no expiry, updating in place when key is
// resident and otherwise filling per the shard's replacement decision —
// possibly evicting the entry the imitated component policy would evict.
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
	c.storeLocked(sh, set, tag, key, val, deadline)
	sh.mu.Unlock()
}

// storeLocked is the body of every store: the engine upsert, the store
// accounting, a fresh cas unique and the entry write. Caller holds sh.mu.
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
			sh.collisions++
		default:
			sh.storeHits++
		}
	} else if !res.Evicted {
		sh.resident++ // filled a previously invalid way
	}
	sh.casSeq++
	sh.entries[slot] = entry[K, V]{key: key, val: val, deadline: deadline, casid: sh.casSeq}
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
		sh.collisions++
		sh.casMisses++
		return CasNotFound
	}
	if e.casid != casid {
		sh.casConflicts++
		return CasExists
	}
	sh.casStored++
	sh.casSeq++
	sh.entries[slot] = entry[K, V]{key: key, val: val, deadline: deadline, casid: sh.casSeq}
	return CasStored
}

// Delete removes key, reporting whether it was resident. The freed slot
// becomes fill-preferred within its set. Deleting an expired entry
// reclaims the slot but reports NOT_FOUND — the value was already dead.
func (c *Cache[K, V]) Delete(key K) bool {
	sh, set, tag := c.locate(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.deletes++
	way, ok := sh.eng.Find(set, tag)
	if !ok {
		return false
	}
	slot := set*c.ways + way
	if sh.entries[slot].key != key {
		sh.collisions++ // tag present but owned by a colliding key
		return false
	}
	if c.expiredDeadline(sh.entries[slot].deadline) {
		c.expireLocked(sh, set, tag, slot)
		return false
	}
	sh.eng.Delete(set, tag)
	sh.entries[slot] = entry[K, V]{} // release references
	sh.delHits++
	sh.resident--
	return true
}

// Flush removes every resident entry and returns how many were dropped.
// It locks one shard at a time (like the stats collectors), so
// operations on other shards proceed while a shard is being emptied. A
// flush racing a writer keeps either nothing or only entries written
// after that shard was swept. Nothing written before Flush started
// survives it, which is all a cache needs. Entries leave through the
// engine's Delete path — each freed way becomes fill-preferred within its
// set — so the learned adaptive state (shadow directories, miss history,
// SBAR winner) survives and the refilled cache re-converges without
// relearning from scratch. That asymmetry is deliberate: flushing serves reintegration
// safety ("cold is safe, stale is not"), and coming back cold in data
// but warm in policy is the best legal restart.
func (c *Cache[K, V]) Flush() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
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
// returns how many it removed. Caller holds sh.mu.
func (c *Cache[K, V]) vacateWhere(sh *shard[K, V], drop func(*entry[K, V]) bool) int {
	removed := 0
	for slot := range sh.entries {
		e := &sh.entries[slot]
		if e.casid == 0 || !drop(e) {
			continue
		}
		_, set, tag := c.locate(e.key)
		sh.eng.Delete(set, tag)
		*e = entry[K, V]{} // release references
		removed++
	}
	return removed
}

// sweepShard reclaims shard i's expired entries under TryLock — a busy
// shard is skipped rather than contended (its own accesses expire
// lazily anyway) — through Flush's slot walk. Swept entries count
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
	return Stats{
		Gets:           sh.gets,
		GetHits:        sh.getHits,
		Stores:         sh.stores,
		StoreHits:      sh.storeHits,
		Deletes:        sh.deletes,
		DeleteHits:     sh.delHits,
		Evictions:      sh.eng.Stats().Evictions,
		PolicySwitches: sh.eng.PolicySwitches(),
		HashCollisions: sh.collisions,
		Expired:        sh.expired,
		SweepRemoved:   sh.sweepRemoved,
		CasStored:      sh.casStored,
		CasConflicts:   sh.casConflicts,
		CasMisses:      sh.casMisses,
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
