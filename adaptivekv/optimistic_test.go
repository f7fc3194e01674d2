package adaptivekv

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPendingRing exercises the ring in isolation: FIFO order, wraparound
// reuse, and full-ring rejection without blocking.
func TestPendingRing(t *testing.T) {
	r := newPendingRing(8)
	for round := 0; round < 5; round++ {
		for i := 0; i < 8; i++ {
			if !r.push(uint32(i), uint64(round*100+i)) {
				t.Fatalf("round %d: push %d rejected on non-full ring", round, i)
			}
		}
		if r.push(99, 99) {
			t.Fatalf("round %d: push accepted on full ring", round)
		}
		if got := r.occupancy(); got != 8 {
			t.Fatalf("round %d: occupancy = %d, want 8", round, got)
		}
		for i := 0; i < 8; i++ {
			set, tag, ok := r.pop()
			if !ok || set != uint32(i) || tag != uint64(round*100+i) {
				t.Fatalf("round %d: pop %d = (%d, %d, %v), want (%d, %d, true)",
					round, i, set, tag, ok, i, round*100+i)
			}
		}
		if _, _, ok := r.pop(); ok {
			t.Fatalf("round %d: pop succeeded on empty ring", round)
		}
		r.headPub.Store(r.head)
	}
}

// TestKVOptimisticStressOneShard is the -race certificate for the
// optimistic read path: every key lands in a single shard, so lock-free
// readers hammer the tag mirror while one writer churns Set/Delete on
// the same sets. Values carry their key's identity, so any torn or
// misrouted read surfaces as a wrong value, and the
// fastpath+fallback==gets accounting must balance exactly.
func TestKVOptimisticStressOneShard(t *testing.T) {
	c := New[int, int](Config{Shards: 1, Sets: 16, Ways: 4, PendingRing: 256})
	if !c.optimistic {
		t.Fatal("single-shard config unexpectedly strict")
	}
	const keys = 64
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writer: continuously overwrite and delete; key k always maps to
	// value k*3+1 when resident.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 60000; i++ {
			k := rng.Intn(keys)
			if rng.Intn(4) == 0 {
				c.Delete(k)
			} else {
				c.Set(k, k*3+1)
			}
		}
		stop.Store(true)
	}()

	readers := 4
	if testing.Short() {
		readers = 2
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]int, 8)
			vals := make([]int, 8)
			oks := make([]bool, 8)
			for !stop.Load() {
				k := rng.Intn(keys)
				if v, ok := c.Get(k); ok && v != k*3+1 {
					t.Errorf("Get(%d) = %d, want %d", k, v, k*3+1)
					return
				}
				if rng.Intn(8) == 0 {
					for i := range batch {
						batch[i] = rng.Intn(keys)
					}
					c.GetBatch(batch, vals, oks)
					for i, k := range batch {
						if oks[i] && vals[i] != k*3+1 {
							t.Errorf("GetBatch(%d) = %d, want %d", k, vals[i], k*3+1)
							return
						}
					}
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()

	st := c.Stats()
	if st.OptimisticFastpath+st.OptimisticFallback != st.Gets {
		t.Errorf("fastpath %d + fallback %d != gets %d",
			st.OptimisticFastpath, st.OptimisticFallback, st.Gets)
	}
	if st.OptimisticFastpath == 0 {
		t.Error("no optimistic fastpath gets recorded under stress")
	}
}

// TestKVPendingOverflowDropsNotBlocks pins the ring's overload contract:
// with the shard lock held (no drains possible), reads past the ring
// capacity still complete with correct results, and the overflow is
// counted in PendingHitsDropped rather than blocking the reader.
func TestKVPendingOverflowDropsNotBlocks(t *testing.T) {
	const ring = 64
	// 8 keys across 64 sets of 4 ways: no set can overflow, so every key
	// stays resident for the duration.
	c := New[int, int](Config{Shards: 1, Sets: 64, Ways: 4, PendingRing: ring})
	for k := 0; k < 8; k++ {
		c.Set(k, k)
	}
	sh := &c.shards[0]
	sh.mu.Lock() // freeze the consumer: no writer or self-drain can run
	const reads = 4 * ring
	for i := 0; i < reads; i++ {
		k := i % 8
		if v, ok := c.Get(k); !ok || v != k {
			sh.mu.Unlock()
			t.Fatalf("Get(%d) under frozen consumer = (%d, %v), want (%d, true)", k, v, ok, k)
		}
	}
	sh.mu.Unlock()

	st := c.Stats()
	if st.Gets != reads {
		t.Fatalf("Gets = %d, want %d", st.Gets, reads)
	}
	// The ¾-full TryLock drain cannot run while mu is held, so everything
	// past the ring capacity must have been dropped.
	if want := uint64(reads - ring); st.PendingHitsDropped != want {
		t.Errorf("PendingHitsDropped = %d, want %d", st.PendingHitsDropped, want)
	}

	// A mutation drains the survivors; the ring must come back empty and
	// subsequent records must flow again without new drops.
	c.Set(1000, 1000)
	if occ := sh.ring.occupancy(); occ != 0 {
		t.Errorf("ring occupancy after drain = %d, want 0", occ)
	}
	before := c.Stats().PendingHitsDropped
	c.Get(3)
	if after := c.Stats().PendingHitsDropped; after != before {
		t.Errorf("drops grew (%d -> %d) after the ring drained", before, after)
	}
}

// opTrace is a deterministic mixed op sequence shared by the determinism
// and batch-equivalence tests.
func opTrace(n int) []struct{ op, key int } {
	rng := rand.New(rand.NewSource(42))
	ops := make([]struct{ op, key int }, n)
	for i := range ops {
		ops[i] = struct{ op, key int }{op: rng.Intn(8), key: rng.Intn(2000)}
	}
	return ops
}

func runTrace(c *Cache[int, int], ops []struct{ op, key int }) {
	for _, o := range ops {
		switch {
		case o.op < 5: // get, read-through
			if _, ok := c.Get(o.key); !ok {
				c.Set(o.key, o.key)
			}
		case o.op < 7:
			c.Set(o.key, o.key)
		default:
			c.Delete(o.key)
		}
	}
}

// TestKVStrictOrderDeterminism: under StrictOrder every access reaches
// the engine inline, so two runs of the same serial op sequence must be
// byte-identical — full stats (including engine-side eviction and
// policy-switch counts) and every shard's winner.
func TestKVStrictOrderDeterminism(t *testing.T) {
	cfg := Config{Shards: 4, Sets: 32, Ways: 4, StrictOrder: true}
	ops := opTrace(30000)
	a, b := New[int, int](cfg), New[int, int](cfg)
	runTrace(a, ops)
	runTrace(b, ops)
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Errorf("strict-order stats diverged:\n  a=%+v\n  b=%+v", sa, sb)
	}
	for i := 0; i < a.Shards(); i++ {
		if wa, wb := a.Winner(i), b.Winner(i); wa != wb {
			t.Errorf("shard %d winner diverged: %d vs %d", i, wa, wb)
		}
		if sa, sb := a.ShardStats(i), b.ShardStats(i); sa != sb {
			t.Errorf("shard %d stats diverged:\n  a=%+v\n  b=%+v", i, sa, sb)
		}
	}
	if st := a.Stats(); st.OptimisticFastpath != 0 || st.OptimisticFallback != 0 || st.PendingHitsDropped != 0 {
		t.Errorf("strict order used the optimistic path: %+v", st)
	}
}

// TestKVBatchEquivalence: under StrictOrder, GetBatch/SetBatch must be
// observationally identical to the same per-key ops — same results, same
// per-shard stats — because batching only regroups lock acquisitions,
// never the per-shard access order.
func TestKVBatchEquivalence(t *testing.T) {
	cfg := Config{Shards: 2, Sets: 16, Ways: 4, StrictOrder: true}
	single, batched := New[string, int](cfg), New[string, int](cfg)

	rng := rand.New(rand.NewSource(7))
	keys := make([]string, 0, 100)
	vals := make([]int, 0, 100)
	bvals := make([]int, 100)
	oks := make([]bool, 100)
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(100) // spans chunks when > batchChunk
		keys, vals = keys[:0], vals[:0]
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("key-%d", rng.Intn(500))
			keys = append(keys, k)
			vals = append(vals, round*1000+i)
		}
		if round%2 == 0 {
			for i, k := range keys {
				single.Set(k, vals[i])
			}
			batched.SetBatch(keys, vals)
		} else {
			batched.GetBatch(keys, bvals[:n], oks[:n])
			for i, k := range keys {
				v, ok := single.Get(k)
				if ok != oks[i] || (ok && v != bvals[i]) {
					t.Fatalf("round %d key %q: single=(%d,%v) batch=(%d,%v)",
						round, k, v, ok, bvals[i], oks[i])
				}
			}
		}
	}
	for i := 0; i < single.Shards(); i++ {
		ss, bs := single.ShardStats(i), batched.ShardStats(i)
		if ss != bs {
			t.Errorf("shard %d stats diverged:\n  single=%+v\n  batched=%+v", i, ss, bs)
		}
	}
	if single.Len() != batched.Len() {
		t.Errorf("Len diverged: single=%d batched=%d", single.Len(), batched.Len())
	}
}

// TestKVBatchOptimistic smokes the optimistic batch path (the server's
// default): results match ground truth and the accounting identities
// hold.
func TestKVBatchOptimistic(t *testing.T) {
	c := New[string, int](Config{Shards: 4, Sets: 32, Ways: 4})
	truth := map[string]int{}
	rng := rand.New(rand.NewSource(11))
	keys := make([]string, 80)
	vals := make([]int, 80)
	oks := make([]bool, 80)
	for round := 0; round < 200; round++ {
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d", rng.Intn(300))
		}
		if round%3 == 0 {
			for i := range keys {
				vals[i] = round + i
			}
			c.SetBatch(keys, vals)
			for i, k := range keys {
				truth[k] = vals[i]
			}
		} else {
			c.GetBatch(keys, vals, oks)
			for i, k := range keys {
				want, resident := truth[k]
				// A miss for a resident key can only come from eviction —
				// legal — but a hit must return the latest value.
				if oks[i] && (!resident || vals[i] != want) {
					t.Fatalf("round %d: GetBatch(%q) = %d, want %d (resident=%v)",
						round, k, vals[i], want, resident)
				}
			}
		}
	}
	st := c.Stats()
	if st.OptimisticFastpath+st.OptimisticFallback != st.Gets {
		t.Errorf("fastpath %d + fallback %d != gets %d",
			st.OptimisticFastpath, st.OptimisticFallback, st.Gets)
	}
}

// TestKVZeroAllocsBatch extends the zero-allocation contract to the batch
// entry points with caller-owned result slices.
func TestKVZeroAllocsBatch(t *testing.T) {
	c := New[int, int](Config{Shards: 2, Sets: 32, Ways: 4})
	keys := make([]int, 32)
	vals := make([]int, 32)
	oks := make([]bool, 32)
	for i := range keys {
		keys[i] = i
		vals[i] = i
	}
	c.SetBatch(keys, vals)
	if avg := testing.AllocsPerRun(200, func() { c.GetBatch(keys, vals, oks) }); avg != 0 {
		t.Errorf("GetBatch: %v allocs per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { c.SetBatch(keys, vals) }); avg != 0 {
		t.Errorf("SetBatch: %v allocs per run, want 0", avg)
	}
}

// TestKVSetLockIsPerSet pins the scope of a publication lock: a reader
// holding one set's read lock must not hold up a Set to another set of
// the same shard.
func TestKVSetLockIsPerSet(t *testing.T) {
	c := New[int, int](Config{Shards: 1, Sets: 16, Ways: 4})
	sh, held, _ := c.locate(0)
	other := 1
	for ; ; other++ {
		if _, set, _ := c.locate(other); set != held {
			break
		}
	}
	sh.locks[held].RLock()
	defer sh.locks[held].RUnlock()
	done := make(chan struct{})
	go func() {
		c.Set(other, 1)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Set to another set waited on a held set read lock")
	}
}

// TestKVResidentKeyNeverMisses is the -race certificate for the lock-free
// miss: writers rewrite the values of resident keys that fill one set
// while readers Get and GetBatch them. The engine updates a resident tag
// in place, so its way and mirror word never change and no read may miss;
// a torn or misrouted value shows as one that names another key. Every
// loop yields: on a host with few CPUs, a writer woken from a lock would
// otherwise wait out a scheduler quantum behind spinning readers, and
// the readers, whose every Get queues an engine replay for the writers
// to drain, would run far longer than the writes they race.
func TestKVResidentKeyNeverMisses(t *testing.T) {
	c := New[int, int](Config{Shards: 1, Sets: 16, Ways: 4})
	_, hot, _ := c.locate(0)
	var keys []int // exactly Ways keys of one set: full, never evicted
	for k := 0; len(keys) < 4; k++ {
		if _, set, _ := c.locate(k); set == hot {
			keys = append(keys, k)
			c.Set(k, k<<20)
		}
	}
	var stop atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 3000; i++ {
				k := keys[(i+w)%len(keys)]
				c.Set(k, k<<20|i&0xfffff)
				runtime.Gosched()
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			vals := make([]int, len(keys))
			oks := make([]bool, len(keys))
			for i := 0; !stop.Load(); i++ {
				runtime.Gosched()
				k := keys[(i+r)%len(keys)]
				if v, ok := c.Get(k); !ok || v>>20 != k {
					t.Errorf("Get(%d) = (%#x, %v), want a value of key %d", k, v, ok, k)
					return
				}
				if i%8 != 0 {
					continue
				}
				c.GetBatch(keys, vals, oks)
				for j, k := range keys {
					if !oks[j] || vals[j]>>20 != k {
						t.Errorf("GetBatch(%d) = (%#x, %v), want a value of key %d", k, vals[j], oks[j], k)
						return
					}
				}
			}
		}(r)
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	st := c.Stats()
	if st.GetHits != st.Gets || st.Gets == 0 {
		t.Errorf("GetHits %d of Gets %d, want all", st.GetHits, st.Gets)
	}
	t.Logf("gets %d, stores %d, fallback %d", st.Gets, st.Stores, st.OptimisticFallback)
}
