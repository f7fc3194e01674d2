package main

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"repro/adaptivekv"
	"repro/internal/kvproto"
	keygen "repro/internal/workload"
)

// regionBase is where internal/workload places a key stream's first
// pattern: pattern i starts at block (i+1)*regionBase. Hot and loop keys
// therefore lie in [regionBase, 2*regionBase) and scan keys at or above
// 2*regionBase.
const regionBase = 16411 * 1024

const (
	keyBytes   = 16      // every key is 'k' and 15 hex digits, so user bytes are exact
	smallValue = 64      // derived values: the key repeated four times
	bigValue   = 8 << 10 // write-ttl-cas values: above kvserver's 4096-byte vectored-write threshold
)

// The server geometry is adaptcached's default; router-mixed nodes are a
// quarter of it so the fleet's working set still exceeds its capacity.
var (
	serverCache = adaptivekv.Config{Shards: 8, Sets: 1024, Ways: 8}
	nodeCache   = adaptivekv.Config{Shards: 8, Sets: 256, Ways: 8}
)

// clientConns is the number of client connections of every workload: the
// CPU count of the 2-core host the bounds were measured on. A run on a
// host with fewer CPUs is marked invalid.
const clientConns = 2

// workload is one traffic mix. Sizes are in operations: a key of a
// multi-key get counts as one operation, as does a set or a cas.
type workload struct {
	name, why  string
	cache      adaptivekv.Config // each server's cache
	nodes      int               // 0: one kvserver; otherwise a kvcluster.Router over this many nodes
	valueBytes int
	warmup     uint64 // operations all connections run together before the window
	ladder     uint64 // operations each in-process ladder rung replays
	newSession func(sessionConfig) session
}

var workloads = []*workload{
	{
		name:       "readthrough-phased",
		why:        "working set above capacity and alternating zipf/loop phases: every miss runs victim choice and SBAR learning, so engine and policy changes show in hit_ratio",
		cache:      serverCache,
		valueBytes: smallValue,
		warmup:     1 << 19,
		ladder:     1 << 20,
		newSession: newReadthrough,
	},
	{
		name:       "multiget-hot",
		why:        "16-key gets over resident keys, no writes: time goes to kvproto, kvserver batching and the optimistic read path; an engine change must not move it",
		cache:      serverCache,
		valueBytes: smallValue,
		warmup:     1 << 19,
		ladder:     1 << 20,
		newSession: newMultigetHot,
	},
	{
		name:       "write-ttl-cas",
		why:        "8 KiB sets, TTL expiry and gets/cas pairs at depth 1: the writer side, the sweeper and vectored writes; shows read-path gains that cost writes or memory",
		cache:      serverCache,
		valueBytes: bigValue,
		warmup:     1 << 15,
		ladder:     1 << 16,
		newSession: newWriteTTLCas,
	},
	{
		name:       "router-mixed",
		why:        "24-key get and gets through a kvcluster.Router over 3 nodes with R=2: the only workload that runs ring lookup, pools, scatter-gather and replica fan-out",
		cache:      nodeCache,
		nodes:      3,
		valueBytes: smallValue,
		warmup:     1 << 17,
		ladder:     1 << 19,
		newSession: newRouterMixed,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// request is one protocol request inside a batch. Sessions build them;
// backends execute a batch and fill in the outcome fields.
type request struct {
	op      kvproto.Op // OpGet, OpGets, OpSet or OpCas
	keys    [][]byte   // get/gets: every key of the line; set/cas: keys[0]
	ids     []uint64   // the key ids behind keys
	value   []byte
	exptime int64
	casid   uint64

	hit    []bool   // per key (get/gets)
	casids []uint64 // per key (gets)
	vals   [][]byte // per key, filled only by in-process backends
	status kvproto.CasStatus
	err    error // a well-formed error reply: the request failed, the stream did not
}

// session generates one connection's closed-loop traffic and checks every
// reply against what it stored itself. Batches are sent together and all
// their replies are read before the next batch is built.
type session interface {
	// preload returns the next batch of set-up stores, or nil when done.
	preload() []*request
	// next returns the next batch of workload requests.
	next() []*request
	// value checks one returned value; it is valid only during the call.
	value(r *request, i int, val []byte)
	// done settles a completed batch: counts, misses, statuses.
	done(batch []*request)
	counts() *counts
}

type sessionConfig struct {
	seed        uint64
	conn, conns int
	shift       uint // key spaces and phase lengths are divided by 2^shift (tests)
	// replay marks a ladder replay: TTLs last an hour instead of two
	// seconds, so no key expires and replays repeat exactly.
	replay    bool
	evictions func() uint64 // the cache's eviction count, for judging misses
	// drawn counts the keys every connection of the run has drawn, so
	// phased traffic flips phase on all connections at once.
	drawn *atomic.Uint64
}

// scaled divides a size by 2^shift, keeping it positive.
func scaled(n uint64, shift uint) uint64 { return max(n>>shift, 1) }

// counts tallies operations; attempted operations are ops.
type counts struct {
	ops, gets, hits, failed uint64
	firstFailure            string
}

func (c *counts) fail(n uint64, why string) {
	c.failed += n
	if c.firstFailure == "" {
		c.firstFailure = why
	}
}

// sub returns c − o for the numeric fields.
func (c counts) sub(o counts) counts {
	return counts{ops: c.ops - o.ops, gets: c.gets - o.gets, hits: c.hits - o.hits, failed: c.failed - o.failed, firstFailure: c.firstFailure}
}

func (c *counts) add(o counts) {
	c.ops += o.ops
	c.gets += o.gets
	c.hits += o.hits
	c.failed += o.failed
	if c.firstFailure == "" {
		c.firstFailure = o.firstFailure
	}
}

// settle counts one completed request: every key of a get or gets is an
// operation and a get, a set or cas one operation. A request that drew
// an error reply fails as a whole.
func (c *counts) settle(r *request) {
	n := uint64(1)
	if r.op == kvproto.OpGet || r.op == kvproto.OpGets {
		n = uint64(len(r.keys))
		c.gets += n
		for _, h := range r.hit {
			if h {
				c.hits++
			}
		}
	}
	c.ops += n
	if r.err != nil {
		c.fail(n, fmt.Sprintf("%v %s: %v", r.op, r.keys[0], r.err))
	}
}

// batcher hands out the requests of one batch, reusing their storage.
type batcher struct {
	pool  []*request
	out   []*request
	arena []byte
}

func (b *batcher) start() {
	b.out = b.out[:0]
	b.arena = b.arena[:0]
}

func (b *batcher) add(op kvproto.Op) *request {
	if len(b.out) == len(b.pool) {
		b.pool = append(b.pool, &request{})
	}
	r := b.pool[len(b.out)]
	*r = request{op: op, keys: r.keys[:0], ids: r.ids[:0], value: r.value[:0],
		hit: r.hit[:0], casids: r.casids[:0], vals: r.vals[:0]}
	b.out = append(b.out, r)
	return r
}

// key appends key id to r. Growing the arena leaves earlier keys on the
// old array, so they stay valid for the batch.
func (b *batcher) key(r *request, id uint64) []byte {
	start := len(b.arena)
	b.arena = appendKey(b.arena, id)
	k := b.arena[start:len(b.arena):len(b.arena)]
	r.keys = append(r.keys, k)
	r.ids = append(r.ids, id)
	r.hit = append(r.hit, false)
	r.casids = append(r.casids, 0)
	r.vals = append(r.vals, nil)
	return k
}

// appendKey appends the 16-byte key of id (id < 2^60).
func appendKey(dst []byte, id uint64) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, 'k')
	for shift := 56; shift >= 0; shift -= 4 {
		dst = append(dst, hex[id>>uint(shift)&15])
	}
	return dst
}

// appendDerived appends the value every derived-value workload stores
// under key: the key four times.
func appendDerived(dst, key []byte) []byte {
	for range smallValue / keyBytes {
		dst = append(dst, key...)
	}
	return dst
}

// checkDerived fails a returned value that is not key's derived value.
func (c *counts) checkDerived(key, val []byte) {
	if !isDerived(val, key) {
		c.fail(1, fmt.Sprintf("wrong value for %s: %q", key, val))
	}
}

func isDerived(val, key []byte) bool {
	if len(val) != smallValue {
		return false
	}
	for i := 0; i < smallValue; i += keyBytes {
		if !bytes.Equal(val[i:i+keyBytes], key) {
			return false
		}
	}
	return true
}

// appendVersioned appends write-ttl-cas's value for (key, version): the
// key and the version in hex, repeated to bigValue bytes.
func appendVersioned(dst, key []byte, version uint64) []byte {
	start := len(dst)
	dst = append(dst, key...)
	dst = appendKey(dst, version)
	for n := len(dst) - start; n < bigValue; n = len(dst) - start {
		dst = append(dst, dst[start:start+min(n, bigValue-n)]...)
	}
	return dst
}

// maxStores caps the 64-byte-value sets of one batch. kvproto.Reader
// hands out a store's key aliased to its 1024-byte read buffer, and a
// value that arrives in a later read overwrites it: the server then files
// the value under a garbage key. Until that is fixed, every batch goes
// out in one write with its stores first, and the stores fit in the
// server's first read — ten such sets take 950 bytes. An 8 KiB store is
// alone in its batch.
const maxStores = 10

// addSets appends sets of derived values for up to maxStores of ids and
// returns the ids left over.
func (b *batcher) addSets(ids []uint64) []uint64 {
	n := min(len(ids), maxStores)
	for _, id := range ids[:n] {
		r := b.add(kvproto.OpSet)
		r.value = appendDerived(r.value, b.key(r, id))
	}
	return append(ids[:0], ids[n:]...)
}

// splitmix64 is the seed mixer: every stream of every connection gets its
// own seed, derived only from -seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func streamSeed(seed uint64, conn, stream int) uint64 {
	return splitmix64(splitmix64(seed) ^ uint64(conn)<<32 ^ uint64(stream))
}

// lane moves a key id into a connection-private range.
func lane(id, l uint64) uint64 { return id | l<<40 }

// uniformKeys draws key ids in [regionBase, regionBase+n) uniformly.
func uniformKeys(seed uint64, n uint64) *keygen.KeyStream {
	return keygen.NewKeyStream(seed, []keygen.Pattern{{Kind: keygen.PatHot, Blocks: n}})
}

// --- readthrough-phased ----------------------------------------------------

const (
	readthroughDepth = 32
	phaseKeys        = 1 << 16 // keys per connection in each phase
)

type readthrough struct {
	b          batcher
	c          counts
	zipf, loop *keygen.KeyStream
	lane       uint64
	phaseLen   uint64 // keys all connections draw in one phase
	drawn      *atomic.Uint64
	pending    []uint64 // keys that missed, set in the next batch
}

func newReadthrough(cfg sessionConfig) session {
	// The zipf hot set is shared by all connections; the loops are
	// private and together span 1.25x the server's capacity.
	loop := scaled(81920, cfg.shift) / uint64(cfg.conns)
	return &readthrough{
		zipf:     keygen.NewKeyStream(streamSeed(cfg.seed, cfg.conn, 1), keygen.MixedZipf(scaled(65536, cfg.shift), 0.8)),
		loop:     keygen.NewKeyStream(streamSeed(cfg.seed, cfg.conn, 2), keygen.LoopingScan(loop)),
		lane:     uint64(cfg.conn)*4 + 1,
		phaseLen: scaled(phaseKeys, cfg.shift) * uint64(cfg.conns),
		drawn:    cfg.drawn,
	}
}

func (s *readthrough) draw() uint64 {
	if (s.drawn.Add(1)-1)/s.phaseLen%2 == 1 {
		return lane(s.loop.Next(), s.lane+1)
	}
	id := s.zipf.Next()
	if id >= 2*regionBase {
		id = lane(id, s.lane) // scan keys are private too
	}
	return id
}

func (s *readthrough) preload() []*request { return nil }

// next sends the sets for the last misses ahead of the next gets; a
// backlog beyond maxStores drains in batches of sets alone.
func (s *readthrough) next() []*request {
	s.b.start()
	if s.pending = s.b.addSets(s.pending); len(s.pending) > 0 {
		return s.b.out
	}
	for range readthroughDepth {
		s.b.key(s.b.add(kvproto.OpGet), s.draw())
	}
	return s.b.out
}

func (s *readthrough) value(r *request, i int, val []byte) { s.c.checkDerived(r.keys[i], val) }

func (s *readthrough) done(batch []*request) {
	for _, r := range batch {
		s.c.settle(r)
		if r.op != kvproto.OpGet || r.err != nil {
			continue
		}
		for i, h := range r.hit {
			if !h {
				s.pending = append(s.pending, r.ids[i])
			}
		}
	}
}

func (s *readthrough) counts() *counts { return &s.c }

// --- multiget-hot ----------------------------------------------------------

const (
	hotKeys      = 16384 // a quarter of the server's capacity
	mgetKeys     = 16
	mgetInFlight = 4
)

type multigetHot struct {
	b           batcher
	c           counts
	keys        *keygen.KeyStream
	n           uint64
	conn, conns uint64
	loaded      uint64 // next index to preload
}

func newMultigetHot(cfg sessionConfig) session {
	n := scaled(hotKeys, cfg.shift)
	return &multigetHot{
		keys:   uniformKeys(streamSeed(cfg.seed, cfg.conn, 1), n),
		n:      n,
		conn:   uint64(cfg.conn),
		conns:  uint64(cfg.conns),
		loaded: uint64(cfg.conn),
	}
}

// preload stores the connection's share of the keys: index i belongs to
// connection i mod conns.
func (s *multigetHot) preload() []*request {
	if s.loaded >= s.n {
		return nil
	}
	s.b.start()
	for ; s.loaded < s.n && len(s.b.out) < maxStores; s.loaded += s.conns {
		r := s.b.add(kvproto.OpSet)
		r.value = appendDerived(r.value, s.b.key(r, regionBase+s.loaded))
	}
	return s.b.out
}

func (s *multigetHot) next() []*request {
	s.b.start()
	for range mgetInFlight {
		r := s.b.add(kvproto.OpGet)
		for range mgetKeys {
			s.b.key(r, s.keys.Next())
		}
	}
	return s.b.out
}

func (s *multigetHot) value(r *request, i int, val []byte) { s.c.checkDerived(r.keys[i], val) }

func (s *multigetHot) done(batch []*request) {
	for _, r := range batch {
		s.c.settle(r)
	}
}

func (s *multigetHot) counts() *counts { return &s.c }

// --- write-ttl-cas ---------------------------------------------------------

const (
	liveTTL   = 2    // seconds: exptime of half the keys
	replayTTL = 3600 // seconds: the same keys in a ladder replay
)

// writeTTLCas runs strict request/reply traffic over the keys this
// connection owns (index mod conns), so each key has exactly one writer
// and the ledger knows every acknowledged version.
type writeTTLCas struct {
	b           batcher
	c           counts
	led         ledger
	keys        *keygen.KeyStream
	mix         uint64 // splitmix64 state for the op mix
	n           uint64
	conn, conns uint64
	ttl         int64
	loaded      uint64

	// The one request in flight; preload stores version 1.
	slot    int
	version uint64
	sent    time.Time
	// A gets that hit leaves its unique for the cas that follows.
	casPending bool
	casid      uint64
}

func newWriteTTLCas(cfg sessionConfig) session {
	n := scaled(hotKeys, cfg.shift)
	s := &writeTTLCas{
		keys:   uniformKeys(streamSeed(cfg.seed, cfg.conn, 1), n),
		mix:    streamSeed(cfg.seed, cfg.conn, 2),
		n:      n,
		conn:   uint64(cfg.conn),
		conns:  uint64(cfg.conns),
		ttl:    liveTTL,
		loaded: uint64(cfg.conn),
		led:    newLedger(int((n+uint64(cfg.conns)-1)/uint64(cfg.conns)), cfg.evictions),
	}
	if cfg.replay {
		s.ttl = replayTTL
	}
	return s
}

// exptime gives every other pair of keys a TTL: half of each
// connection's keys expire unless rewritten.
func (s *writeTTLCas) exptime(idx uint64) int64 {
	if idx%4 >= 2 {
		return s.ttl
	}
	return 0
}

func (s *writeTTLCas) deadline(idx uint64) time.Time {
	if e := s.exptime(idx); e != 0 {
		return s.sent.Add(time.Duration(e) * time.Second)
	}
	return time.Time{}
}

func (s *writeTTLCas) store(op kvproto.Op, idx, version uint64) *request {
	r := s.b.add(op)
	r.value = appendVersioned(r.value, s.b.key(r, regionBase+idx), version)
	r.exptime = s.exptime(idx)
	return r
}

func (s *writeTTLCas) preload() []*request {
	if s.loaded >= s.n {
		return nil
	}
	s.b.start()
	s.sent = time.Now()
	s.version = 1
	s.store(kvproto.OpSet, s.loaded, s.version)
	s.loaded += s.conns
	return s.b.out
}

func (s *writeTTLCas) next() []*request {
	s.b.start()
	s.sent = time.Now()
	if s.casPending {
		s.casPending = false
		s.version = s.led.e[s.slot].version + 1
		s.store(kvproto.OpCas, uint64(s.slot)*s.conns+s.conn, s.version).casid = s.casid
		return s.b.out
	}
	idx := s.keys.Next() - regionBase
	idx = idx - idx%s.conns + s.conn
	if idx >= s.n {
		idx -= s.conns
	}
	s.slot = int(idx / s.conns)
	s.mix = splitmix64(s.mix)
	switch x := s.mix % 10; {
	case x < 4:
		s.version = s.led.e[s.slot].version + 1
		s.store(kvproto.OpSet, idx, s.version)
	case x < 7:
		s.b.key(s.b.add(kvproto.OpGet), regionBase+idx)
	default:
		s.b.key(s.b.add(kvproto.OpGets), regionBase+idx)
	}
	return s.b.out
}

func (s *writeTTLCas) slotOf(r *request) int { return int((r.ids[0] - regionBase) / s.conns) }

func (s *writeTTLCas) value(r *request, i int, val []byte) {
	if !s.led.hit(s.slotOf(r), r.keys[i], val) {
		s.c.fail(1, fmt.Sprintf("%v %s returned a value that was never the last one acknowledged", r.op, r.keys[i]))
	}
}

func (s *writeTTLCas) done(batch []*request) {
	now := time.Now()
	for _, r := range batch {
		s.c.settle(r)
		if r.err != nil {
			continue
		}
		slot := s.slotOf(r)
		idx := r.ids[0] - regionBase
		switch r.op {
		case kvproto.OpSet:
			s.led.stored(slot, s.version, s.deadline(idx))
		case kvproto.OpGet, kvproto.OpGets:
			if r.hit[0] {
				if r.op == kvproto.OpGets {
					s.casPending, s.casid = true, r.casids[0]
				}
			} else if !s.led.miss(slot, now) {
				s.c.fail(1, fmt.Sprintf("%v %s missed with no expiry or eviction to explain it", r.op, r.keys[0]))
			}
		case kvproto.OpCas:
			if !s.led.cas(slot, r.status, s.version, s.deadline(idx), now) {
				s.c.fail(1, fmt.Sprintf("cas %s answered %s", r.keys[0], casName(r.status)))
			}
		}
	}
}

func (s *writeTTLCas) counts() *counts { return &s.c }

func casName(st kvproto.CasStatus) string {
	switch st {
	case kvproto.CasStored:
		return "STORED"
	case kvproto.CasExists:
		return "EXISTS"
	default:
		return "NOT_FOUND"
	}
}

// --- router-mixed ----------------------------------------------------------

const (
	routerKeys = 24
	routerHot  = 32768
)

type routerMixed struct {
	b       batcher
	c       counts
	keys    *keygen.KeyStream
	lane    uint64
	round   uint64
	pending []uint64
}

func newRouterMixed(cfg sessionConfig) session {
	return &routerMixed{
		keys: keygen.NewKeyStream(streamSeed(cfg.seed, cfg.conn, 1), keygen.MixedZipf(scaled(routerHot, cfg.shift), 0.8)),
		lane: uint64(cfg.conn) + 1,
	}
}

func (s *routerMixed) preload() []*request { return nil }

// next alternates one 24-key get and one 24-key gets; after each, the
// keys that missed are set in batches of their own.
func (s *routerMixed) next() []*request {
	s.b.start()
	if len(s.pending) > 0 {
		s.pending = s.b.addSets(s.pending)
		return s.b.out
	}
	op := kvproto.OpGet
	if s.round%2 == 1 {
		op = kvproto.OpGets
	}
	s.round++
	r := s.b.add(op)
	for range routerKeys {
		id := s.keys.Next()
		if id >= 2*regionBase {
			id = lane(id, s.lane)
		}
		s.b.key(r, id)
	}
	return s.b.out
}

func (s *routerMixed) value(r *request, i int, val []byte) { s.c.checkDerived(r.keys[i], val) }

func (s *routerMixed) done(batch []*request) {
	for _, r := range batch {
		s.c.settle(r)
		if r.op == kvproto.OpSet || r.err != nil {
			continue
		}
		for i, h := range r.hit {
			if !h {
				s.pending = append(s.pending, r.ids[i])
			}
		}
	}
}

func (s *routerMixed) counts() *counts { return &s.c }
