package adaptivekv

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestKVOptimisticStressOneShard is the -race certificate for reads racing
// writes on one shard: every key lands in a single shard, so readers and
// one writer churning Set/Delete contend on the same shard lock and sets.
// Values carry their key's identity, so any torn or misrouted read
// surfaces as a wrong value. Every goroutine runs a fixed op count, so the
// test's length does not depend on how the scheduler shares the CPUs.
func TestKVOptimisticStressOneShard(t *testing.T) {
	c := New[int, int](Config{Shards: 1, Sets: 16, Ways: 4})
	const keys, ops = 64, 20000
	var wg sync.WaitGroup

	// Writer: continuously overwrite and delete; key k always maps to
	// value k*3+1 when resident.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < ops; i++ {
			k := rng.Intn(keys)
			if rng.Intn(4) == 0 {
				c.Delete(k)
			} else {
				c.Set(k, k*3+1)
			}
		}
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
			for i := 0; i < ops; i++ {
				k := rng.Intn(keys)
				if v, ok := c.Get(k); ok && v != k*3+1 {
					t.Errorf("Get(%d) = %d, want %d", k, v, k*3+1)
					return
				}
				if i%8 != 0 {
					continue
				}
				for j := range batch {
					batch[j] = rng.Intn(keys)
				}
				c.GetBatch(batch, vals, oks)
				for j, k := range batch {
					if oks[j] && vals[j] != k*3+1 {
						t.Errorf("GetBatch(%d) = %d, want %d", k, vals[j], k*3+1)
						return
					}
				}
			}
		}(int64(100 + r))
	}
	wg.Wait()

	// Every read counts exactly once: ops Gets plus ops/8 batches of 8.
	if got, want := c.Stats().Gets, uint64(readers*(ops+ops/8*8)); got != want && !t.Failed() {
		t.Errorf("Gets = %d, want %d", got, want)
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

// TestKVDeterminism: every access reaches the engine inline, so two runs
// of the same serial op sequence on the serving configuration must be
// byte-identical — full stats (including engine-side eviction and
// policy-switch counts) and every shard's winner.
func TestKVDeterminism(t *testing.T) {
	cfg := Config{Shards: 4, Sets: 32, Ways: 4}
	ops := opTrace(30000)
	a, b := New[int, int](cfg), New[int, int](cfg)
	runTrace(a, ops)
	runTrace(b, ops)
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Errorf("stats diverged:\n  a=%+v\n  b=%+v", sa, sb)
	}
	for i := 0; i < a.Shards(); i++ {
		if wa, wb := a.Winner(i), b.Winner(i); wa != wb {
			t.Errorf("shard %d winner diverged: %d vs %d", i, wa, wb)
		}
		if sa, sb := a.ShardStats(i), b.ShardStats(i); sa != sb {
			t.Errorf("shard %d stats diverged:\n  a=%+v\n  b=%+v", i, sa, sb)
		}
	}
}

// TestKVBatchEquivalence: GetBatch must be observationally identical to
// the same per-key Gets — same results, same per-shard stats — because
// batching only regroups lock acquisitions, never the per-shard access
// order.
func TestKVBatchEquivalence(t *testing.T) {
	cfg := Config{Shards: 2, Sets: 16, Ways: 4}
	single, batched := New[string, int](cfg), New[string, int](cfg)

	rng := rand.New(rand.NewSource(7))
	keys := make([]string, 0, 100)
	bvals := make([]int, 100)
	oks := make([]bool, 100)
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(100) // spans chunks when > batchChunk
		keys = keys[:0]
		for i := 0; i < n; i++ {
			keys = append(keys, fmt.Sprintf("key-%d", rng.Intn(500)))
		}
		if round%2 == 0 {
			for i, k := range keys {
				single.Set(k, round*1000+i)
				batched.Set(k, round*1000+i)
			}
			continue
		}
		batched.GetBatch(keys, bvals[:n], oks[:n])
		for i, k := range keys {
			v, ok := single.Get(k)
			if ok != oks[i] || (ok && v != bvals[i]) {
				t.Fatalf("round %d key %q: single=(%d,%v) batch=(%d,%v)",
					round, k, v, ok, bvals[i], oks[i])
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

// TestKVZeroAllocsBatch extends the zero-allocation contract to GetBatch
// with caller-owned result slices.
func TestKVZeroAllocsBatch(t *testing.T) {
	c := New[int, int](Config{Shards: 2, Sets: 32, Ways: 4})
	keys := make([]int, 32)
	vals := make([]int, 32)
	oks := make([]bool, 32)
	for i := range keys {
		keys[i] = i
		c.Set(i, i)
	}
	if avg := testing.AllocsPerRun(200, func() { c.GetBatch(keys, vals, oks) }); avg != 0 {
		t.Errorf("GetBatch: %v allocs per run, want 0", avg)
	}
}

// TestKVResidentKeyNeverMisses is the -race certificate for resident
// reads: writers rewrite the values of resident keys that fill one set
// while readers Get and GetBatch them. The engine updates a resident tag
// in place, so no read may miss; a torn or misrouted value shows as one
// that names another key. Every loop yields: on a host with few CPUs, a
// writer woken from the shard lock would otherwise wait out a scheduler
// quantum behind spinning readers, and the readers would run far longer
// than the writes they race.
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
	t.Logf("gets %d, stores %d", st.Gets, st.Stores)
}
