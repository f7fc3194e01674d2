package adaptivekv

// Compare-and-swap semantics: per-entry uniques, conflict detection,
// accounting isolation (cas ops never leak into the get/store tallies
// the soak harness reconciles), TTL-corpse handling, and the zero-alloc
// guarantee the hot path shares with Get/Set.

import (
	"testing"
	"time"
)

func TestKVCasBasic(t *testing.T) {
	c := New[string, int](Config{Shards: 2, Sets: 8, Ways: 4})
	defer c.Close()

	if _, id, ok := c.GetCas("k"); ok || id != 0 {
		t.Fatalf("GetCas on empty = (id=%d, ok=%v)", id, ok)
	}
	if res := c.CompareAndSwap("k", 1, 1, 0); res != CasNotFound {
		t.Fatalf("cas on absent key = %v, want CasNotFound", res)
	}

	c.Set("k", 1)
	v, id, ok := c.GetCas("k")
	if !ok || v != 1 || id == 0 {
		t.Fatalf("GetCas = (%d, id=%d, ok=%v), want value 1 with nonzero unique", v, id, ok)
	}

	// Wrong unique: conflict, value untouched.
	if res := c.CompareAndSwap("k", 99, id+1, 0); res != CasExists {
		t.Fatalf("cas with wrong unique = %v, want CasExists", res)
	}
	if v, _ := c.Get("k"); v != 1 {
		t.Fatalf("value after refused swap = %d, want 1", v)
	}

	// Matching unique: swap applies and consumes the unique.
	if res := c.CompareAndSwap("k", 2, id, 0); res != CasStored {
		t.Fatal("cas with matching unique != CasStored")
	}
	v, id2, ok := c.GetCas("k")
	if !ok || v != 2 || id2 == id || id2 == 0 {
		t.Fatalf("post-swap GetCas = (%d, id=%d), want value 2 with fresh unique (was %d)", v, id2, id)
	}
	if res := c.CompareAndSwap("k", 3, id, 0); res != CasExists {
		t.Fatal("replaying a consumed unique = not CasExists")
	}

	st := c.Stats()
	if st.CasStored != 1 || st.CasConflicts != 2 || st.CasMisses != 1 {
		t.Fatalf("cas stats = %d/%d/%d, want 1 stored, 2 conflicts, 1 miss", st.CasStored, st.CasConflicts, st.CasMisses)
	}
	if got := st.CasOps(); got != 4 {
		t.Fatalf("CasOps = %d, want 4", got)
	}
	// Accounting isolation: the four cas calls moved neither the get
	// nor the store tallies — GetCas counts as a get, cas as neither.
	if st.Gets != 4 {
		t.Fatalf("Gets = %d, want 4 (cas ops must not count)", st.Gets)
	}
	if st.Stores != 1 {
		t.Fatalf("Stores = %d, want 1 (winning cas must not count)", st.Stores)
	}
}

// TestKVCasUniqueInvalidatedByStore: any overwrite advances the entry's
// unique, so a cas presenting a unique
// fetched before the store conflicts instead of clobbering the newer
// value. This is the property that makes gets/cas a safe
// read-modify-write primitive under concurrent writers.
func TestKVCasUniqueInvalidatedByStore(t *testing.T) {
	c := New[string, int](Config{Shards: 2, Sets: 8, Ways: 4})
	defer c.Close()

	c.Set("k", 1)
	_, id, ok := c.GetCas("k")
	if !ok {
		t.Fatal("GetCas miss after Set")
	}
	c.Set("k", 2) // concurrent writer wins the race
	if res := c.CompareAndSwap("k", 99, id, 0); res != CasExists {
		t.Fatalf("cas after interleaved Set = %v, want CasExists", res)
	}
	if v, _ := c.Get("k"); v != 2 {
		t.Fatalf("value = %d, want the interleaved Set's 2", v)
	}

	_, id, _ = c.GetCas("k")
	c.Set("k", 3)
	if res := c.CompareAndSwap("k", 99, id, 0); res != CasExists {
		t.Fatalf("cas after a second interleaved Set = %v, want CasExists", res)
	}
	if v, _ := c.Get("k"); v != 3 {
		t.Fatalf("value = %d, want the second interleaved Set's 3", v)
	}
}

// TestKVCasTTLCorpse: an expired entry is NOT_FOUND to cas — even when
// the caller presents the unique that was valid while the entry lived —
// and the corpse is reclaimed with exactly-once Expired accounting.
func TestKVCasTTLCorpse(t *testing.T) {
	c := New[string, int](Config{Shards: 1, Sets: 8, Ways: 4})
	defer c.Close()

	d := time.Now().Add(time.Hour).UnixNano()
	c.SetTTL("k", 1, d)
	_, id, ok := c.GetCas("k")
	if !ok || id == 0 {
		t.Fatalf("GetCas before deadline = (id=%d, ok=%v)", id, ok)
	}
	advanceClock(c, d)
	if res := c.CompareAndSwap("k", 2, id, 0); res != CasNotFound {
		t.Fatalf("cas on TTL corpse = %v, want CasNotFound", res)
	}
	st := c.Stats()
	if st.CasMisses != 1 || st.Expired != 1 {
		t.Fatalf("CasMisses=%d Expired=%d, want 1 and 1", st.CasMisses, st.Expired)
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want corpse reclaimed", c.Len())
	}
	// A cas-applied deadline expires like a SetTTL one.
	c.SetTTL("k", 1, 0)
	_, id, _ = c.GetCas("k")
	d2 := time.Now().Add(time.Hour).UnixNano()
	if res := c.CompareAndSwap("k", 2, id, d2); res != CasStored {
		t.Fatalf("cas with deadline = %v, want CasStored", res)
	}
	advanceClock(c, d2)
	if _, ok := c.Get("k"); ok {
		t.Fatal("value lived past its cas-applied deadline")
	}
}

// TestKVCasBatchEquivalence: GetBatchCas returns per key exactly what
// GetCas returns — value, unique, and hit in one coherent window.
func TestKVCasBatchEquivalence(t *testing.T) {
	c := New[uint64, uint64](Config{Shards: 4, Sets: 16, Ways: 4})
	defer c.Close()
	const n = 96
	for k := uint64(0); k < n; k += 2 { // evens resident, odds missing
		c.Set(k, k*10)
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	vals := make([]uint64, n)
	casids := make([]uint64, n)
	oks := make([]bool, n)
	c.GetBatchCas(keys, vals, casids, oks)
	for i, k := range keys {
		wv, wid, wok := c.GetCas(k)
		if oks[i] != wok || vals[i] != wv && wok || casids[i] != wid {
			t.Fatalf("key %d: batch (%d, id=%d, %v) != GetCas (%d, id=%d, %v)",
				k, vals[i], casids[i], oks[i], wv, wid, wok)
		}
		if oks[i] && casids[i] == 0 || !oks[i] && casids[i] != 0 {
			t.Fatalf("key %d: hit=%v with unique %d", k, oks[i], casids[i])
		}
	}
}

// TestKVCasZeroAllocs: the cas hot path allocates nothing — GetCas hits
// and CompareAndSwap in every outcome, matching the Get/Set guarantee
// cmd/benchregress gates.
func TestKVCasZeroAllocs(t *testing.T) {
	c := New[uint64, uint64](smallConfig(ModeSBAR))
	defer c.Close()
	const keys = 64
	ids := make([]uint64, keys)
	for k := uint64(0); k < keys; k++ {
		c.Set(k, k)
		_, ids[k], _ = c.GetCas(k)
	}
	var sink uint64
	if avg := testing.AllocsPerRun(1000, func() {
		v, id, _ := c.GetCas(sink % keys)
		sink += v + id
	}); avg != 0 {
		t.Errorf("GetCas: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		k := sink % keys
		if c.CompareAndSwap(k, sink, ids[k], 0) == CasStored {
			_, ids[k], _ = c.GetCas(k)
		}
		sink++
	}); avg != 0 {
		t.Errorf("CompareAndSwap: %v allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		c.CompareAndSwap(sink%keys, 1, ^uint64(0), 0) // always conflicts
		c.CompareAndSwap(sink+1_000_000, 1, 1, 0)     // always misses
		sink++
	}); avg != 0 {
		t.Errorf("conflict/miss cas: %v allocs/op, want 0", avg)
	}
}
