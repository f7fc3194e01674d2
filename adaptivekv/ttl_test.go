package adaptivekv

// White-box TTL tests. These drive the coarse expiry clock directly
// (c.clock) so lazy-expiry behavior is deterministic; sweeper tests use
// a short SweepInterval and poll instead, exercising the real tick path.

import (
	"testing"
	"time"
)

// advanceClock moves the coarse clock just past the given deadline, as
// a sweeper tick eventually would.
func advanceClock[K comparable, V any](c *Cache[K, V], past int64) {
	c.clock.Store(past + 1)
}

func TestTTLLazyExpiryStrictOrder(t *testing.T) {
	c := New[string, int](Config{Shards: 1, Sets: 8, Ways: 4, StrictOrder: true})
	defer c.Close()

	d := time.Now().Add(time.Hour).UnixNano()
	c.SetTTL("k", 7, d)
	if v, ok := c.Get("k"); !ok || v != 7 {
		t.Fatalf("Get before deadline = (%d, %v), want (7, true)", v, ok)
	}
	advanceClock(c, d)
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get after deadline hit, want miss")
	}
	st := c.Stats()
	if st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
	if st.GetHits != 1 {
		t.Fatalf("GetHits = %d, want 1 (expired read must not count as hit)", st.GetHits)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0 after lazy reclaim", c.Len())
	}
	// The slot is genuinely vacant: a second Get is a plain miss with no
	// further Expired accounting.
	if _, ok := c.Get("k"); ok {
		t.Fatal("second Get after expiry hit")
	}
	if st := c.Stats(); st.Expired != 1 {
		t.Fatalf("Expired after second Get = %d, want 1 (exactly-once)", st.Expired)
	}
}

func TestTTLLazyExpiryOptimistic(t *testing.T) {
	c := New[string, int](Config{Shards: 1, Sets: 8, Ways: 4})
	defer c.Close()

	d := time.Now().Add(time.Hour).UnixNano()
	c.SetTTL("k", 7, d)
	if v, ok := c.Get("k"); !ok || v != 7 {
		t.Fatalf("Get before deadline = (%d, %v), want (7, true)", v, ok)
	}
	advanceClock(c, d)
	// Optimistic readers see the corpse as a miss but cannot reclaim it
	// (they hold only a set read lock); Expired is counted later at reclaim.
	if _, ok := c.Get("k"); ok {
		t.Fatal("optimistic Get after deadline hit, want miss")
	}
	// A write to the same shard drains the pending ring, which vacates
	// the corpse and records the engine miss.
	c.Set("other", 1)
	st := c.Stats()
	if st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1 after drain reclaim", st.Expired)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get after reclaim hit")
	}
}

func TestTTLGetBatchExpiry(t *testing.T) {
	for _, strict := range []bool{true, false} {
		c := New[string, int](Config{Shards: 2, Sets: 8, Ways: 4, StrictOrder: strict})
		d := time.Now().Add(time.Hour).UnixNano()
		c.SetTTL("dead", 1, d)
		c.SetTTL("live", 2, 0)
		advanceClock(c, d)

		keys := []string{"dead", "live", "missing"}
		vals := make([]int, len(keys))
		oks := make([]bool, len(keys))
		c.GetBatch(keys, vals, oks)
		if oks[0] {
			t.Fatalf("strict=%v: expired key hit in GetBatch", strict)
		}
		if !oks[1] || vals[1] != 2 {
			t.Fatalf("strict=%v: live key = (%d, %v), want (2, true)", strict, vals[1], oks[1])
		}
		if oks[2] {
			t.Fatalf("strict=%v: missing key hit", strict)
		}
		c.Close()
	}
}

func TestTTLSetOverCorpseCountsExpiredNotStoreHit(t *testing.T) {
	c := New[string, int](Config{Shards: 1, Sets: 8, Ways: 4, StrictOrder: true})
	defer c.Close()

	d := time.Now().Add(time.Hour).UnixNano()
	c.SetTTL("k", 1, d)
	advanceClock(c, d)
	c.SetTTL("k", 2, 0) // overwrite the corpse
	st := c.Stats()
	if st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1 (set-over-corpse is the reclaim)", st.Expired)
	}
	if st.StoreHits != 0 {
		t.Fatalf("StoreHits = %d, want 0 (corpse slot was logically vacant)", st.StoreHits)
	}
	if v, ok := c.Get("k"); !ok || v != 2 {
		t.Fatalf("Get after overwrite = (%d, %v), want (2, true)", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestTTLDeleteOfCorpse(t *testing.T) {
	c := New[string, int](Config{Shards: 1, Sets: 8, Ways: 4, StrictOrder: true})
	defer c.Close()

	d := time.Now().Add(time.Hour).UnixNano()
	c.SetTTL("k", 1, d)
	advanceClock(c, d)
	if c.Delete("k") {
		t.Fatal("Delete of expired entry = true, want false (value already dead)")
	}
	st := c.Stats()
	if st.Expired != 1 || st.DeleteHits != 0 {
		t.Fatalf("Expired=%d DeleteHits=%d, want 1/0", st.Expired, st.DeleteHits)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0 (delete reclaimed the slot)", c.Len())
	}
}

func TestTTLImmediateExpiry(t *testing.T) {
	c := New[string, int](Config{Shards: 1, Sets: 8, Ways: 4, StrictOrder: true})
	defer c.Close()

	// Deadline 1 is the already-expired sentinel (kvproto.DeadlineNanos
	// for negative exptime): any live coarse clock is past it.
	c.SetTTL("k", 1, 1)
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get of already-expired entry hit")
	}
	if st := c.Stats(); st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1", st.Expired)
	}
}

func TestTTLSweeperReclaims(t *testing.T) {
	c := New[string, int](Config{
		Shards: 2, Sets: 8, Ways: 4, StrictOrder: true,
		SweepInterval: time.Millisecond,
	})
	defer c.Close()

	deadline := time.Now().Add(20 * time.Millisecond).UnixNano()
	for _, k := range []string{"a", "b", "c", "d"} {
		c.SetTTL(k, 1, deadline)
	}
	c.SetTTL("keep", 2, 0)

	deadlineAt := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadlineAt) {
		if st := c.Stats(); st.SweepRemoved == 4 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := c.Stats()
	if st.SweepRemoved != 4 || st.Expired != 4 {
		t.Fatalf("SweepRemoved=%d Expired=%d, want 4/4", st.SweepRemoved, st.Expired)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (only the no-TTL entry survives)", c.Len())
	}
	if v, ok := c.Get("keep"); !ok || v != 2 {
		t.Fatalf("no-TTL entry = (%d, %v), want (2, true)", v, ok)
	}
	if c.SweepPasses() == 0 {
		t.Fatal("SweepPasses = 0 after sweeper reclaimed entries")
	}
	// No reads touched the dead keys: the sweeper alone did the
	// accounting, and it never double-counts with the lazy path.
	if _, ok := c.Get("a"); ok {
		t.Fatal("swept key still readable")
	}
	if st := c.Stats(); st.Expired != 4 {
		t.Fatalf("Expired after post-sweep read = %d, want 4", st.Expired)
	}
}

func TestTTLFlushPlusExpiryNoDoubleCount(t *testing.T) {
	c := New[string, int](Config{Shards: 1, Sets: 8, Ways: 4, StrictOrder: true})
	defer c.Close()

	d := time.Now().Add(time.Hour).UnixNano()
	c.SetTTL("dead", 1, d)
	c.SetTTL("live", 2, 0)
	advanceClock(c, d)
	// Flush drops both entries — the corpse leaves as a flushed entry,
	// not as an expiry (nothing observed it dead first).
	if n := c.Flush(); n != 2 {
		t.Fatalf("Flush = %d, want 2", n)
	}
	st := c.Stats()
	if st.Expired != 0 {
		t.Fatalf("Expired = %d, want 0 (flush is not expiry)", st.Expired)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestTTLCloseIdempotent(t *testing.T) {
	c := New[string, int](Config{Shards: 1, Sets: 8, Ways: 4})
	c.SetTTL("k", 1, time.Now().Add(time.Hour).UnixNano())
	c.Close()
	c.Close() // must not panic on double close
	// Cache stays usable after Close (minus active sweeping).
	c.Set("k2", 2)
	if v, ok := c.Get("k2"); !ok || v != 2 {
		t.Fatalf("Get after Close = (%d, %v), want (2, true)", v, ok)
	}
	// Close without ever starting the sweeper is also fine.
	c2 := New[string, int](Config{Shards: 1, Sets: 8, Ways: 4})
	c2.Close()
}

func TestTTLDeadlineAccessor(t *testing.T) {
	c := New[string, int](Config{Shards: 1, Sets: 8, Ways: 4})
	defer c.Close()

	far := time.Now().Add(time.Hour).UnixNano()
	c.SetTTL("ttl", 1, far)
	c.Set("plain", 2)

	if d, ok := c.Deadline("ttl"); !ok || d != far {
		t.Fatalf("Deadline(ttl) = (%d, %v), want (%d, true)", d, ok, far)
	}
	if d, ok := c.Deadline("plain"); !ok || d != 0 {
		t.Fatalf("Deadline(plain) = (%d, %v), want (0, true)", d, ok)
	}
	if _, ok := c.Deadline("missing"); ok {
		t.Fatal("Deadline(missing) = true")
	}
	// Deadline does not record an access.
	if st := c.Stats(); st.Gets != 0 {
		t.Fatalf("Gets after Deadline calls = %d, want 0", st.Gets)
	}
}

func TestTTLNonTTLCachePathsUntouched(t *testing.T) {
	c := New[string, int](Config{Shards: 1, Sets: 8, Ways: 4})
	defer c.Close()
	c.Set("k", 1)
	if c.ttlInUse.Load() {
		t.Fatal("ttlInUse flipped without any TTL store")
	}
	if c.SweepPasses() != 0 {
		t.Fatal("sweeper ran without any TTL store")
	}
	// SetTTL with deadline 0 is exactly Set: still no TTL mode.
	c.SetTTL("k2", 2, 0)
	if c.ttlInUse.Load() {
		t.Fatal("ttlInUse flipped by deadline-0 SetTTL")
	}
}
