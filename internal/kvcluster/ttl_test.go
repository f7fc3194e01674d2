package kvcluster

// Cluster-level TTL semantics: the cluster normalizes a relative
// exptime to one absolute deadline before fan-out (replicas must agree
// on when the value dies), failover reads never resurrect an expired
// value, and flush-on-reintegrate composes with expiry without double
// accounting.

import (
	"testing"
	"time"
)

// TestClusterTTLReplicatedDeadlinePropagation: with R=2, a relative
// exptime is converted to an absolute unix time exactly once, at the
// cluster entry point — both owners store the identical deadline, even
// though the replica write happens later than the primary's.
func TestClusterTTLReplicatedDeadlinePropagation(t *testing.T) {
	f, cl := replicatedCluster(t, 2, nil)
	key := []byte("ttl-replicated")

	before := time.Now().Unix()
	if err := cl.Set(key, 0, 60, []byte("v")); err != nil {
		t.Fatal(err)
	}
	after := time.Now().Unix()

	var deadlines []int64
	for i, n := range f.Nodes {
		d, ok := n.Server().Cache().Deadline(string(key))
		if !ok {
			t.Fatalf("node %d: key not resident after replicated set", i)
		}
		deadlines = append(deadlines, d)
	}
	if deadlines[0] != deadlines[1] {
		t.Fatalf("owners disagree on deadline: %d vs %d — exptime was re-relativized",
			deadlines[0], deadlines[1])
	}
	// The deadline is now+60s in unix nanos (the absolute unix-seconds
	// form crosses the wire, so it is second-granular).
	sec := deadlines[0] / int64(time.Second)
	if sec < before+60 || sec > after+60 {
		t.Fatalf("deadline %ds not within [%d, %d]", sec, before+60, after+60)
	}
}

// TestClusterTTLFailoverNeverResurrects: a failover read of an expired
// key must miss on the replica too — ejecting the primary cannot bring
// a dead value back.
func TestClusterTTLFailoverNeverResurrects(t *testing.T) {
	_, cl := replicatedCluster(t, 2, nil)
	dead := keyWithPrimary(t, cl, 0)
	live := append([]byte("live-"), keyWithPrimary(t, cl, 0)...)

	// Negative exptime: both owners store an already-expired entry.
	if err := cl.Set(dead, 0, -1, []byte("ghost")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(live, 0, 0, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < cl.cfg.FailThreshold; i++ {
		cl.pools[0].noteFailure()
	}
	if !cl.Ejected(0) {
		t.Fatal("primary not ejected")
	}

	if v, ok, err := cl.Get(dead); err != nil || ok {
		t.Fatalf("failover Get of expired key = (%q, %v, %v), want clean miss", v, ok, err)
	}
	// MultiGet takes the same failover grouping; the expired key must
	// yield no callback.
	hits := 0
	err := cl.MultiGet([][]byte{dead, live}, func(i int, fl uint32, val []byte) {
		hits++
		if i != 1 || string(val) != "v1" {
			t.Fatalf("multiget callback i=%d val=%q, want only the live key", i, val)
		}
	})
	if err != nil || hits != 1 {
		t.Fatalf("multiget over expired+live: hits=%d err=%v, want 1 hit", hits, err)
	}
}

// TestClusterTTLReintegrationFlushNoDoubleCount: a node holding an
// expired corpse gets flushed on reintegration. The flush empties the
// cache without counting the corpse as expired — nothing ever observed
// it dead — so Expired stays exact across the heal. The TTL sweeper may
// legitimately reclaim the corpse first (counting it in both Expired
// and SweepRemoved); only the flush must add nothing to Expired.
func TestClusterTTLReintegrationFlushNoDoubleCount(t *testing.T) {
	f, cl := replicatedCluster(t, 2, func(c *Config) {
		c.ProbeInterval = 20 * time.Millisecond
		c.ProbeBackoffMax = 100 * time.Millisecond
	})
	cl.Start()

	key := keyWithPrimary(t, cl, 0)
	if err := cl.Set(key, 0, -1, []byte("corpse")); err != nil {
		t.Fatal(err)
	}
	before := f.Nodes[0].Server().Cache().Stats()

	f.Nodes[0].Partition()
	deadline := time.Now().Add(10 * time.Second)
	for !cl.Ejected(0) {
		if time.Now().After(deadline) {
			t.Fatal("partitioned node never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := f.Nodes[0].Heal(); err != nil {
		t.Fatal(err)
	}
	for cl.Ejected(0) {
		if time.Now().After(deadline) {
			t.Fatal("healed node never reintegrated")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.Nodes[0].Server().Flushes() == 0 {
		t.Fatal("reintegrated node was never flushed")
	}

	st := f.Nodes[0].Server().Cache().Stats()
	if st.Expired-before.Expired != st.SweepRemoved-before.SweepRemoved {
		t.Fatalf("Expired moved %d -> %d across reintegration flush, sweeper reclaimed %d — flushed corpse double-counted",
			before.Expired, st.Expired, st.SweepRemoved-before.SweepRemoved)
	}
	// The corpse is gone for good: a read after reintegration is a plain
	// miss on every path.
	if v, ok, err := cl.Get(key); err != nil || ok {
		t.Fatalf("post-reintegration Get = (%q, %v, %v), want miss", v, ok, err)
	}
	// And a fresh write with a TTL works end to end after the heal. The
	// first attempt may land on a pooled connection severed by the
	// partition and surface ErrUnacked (never replayed by the client);
	// re-issuing the idempotent set is the caller's call to make.
	var setErr error
	for attempt := 0; attempt < 3; attempt++ {
		if setErr = cl.Set(key, 0, 60, []byte("reborn")); setErr == nil {
			break
		}
	}
	if setErr != nil {
		t.Fatal(setErr)
	}
	if v, ok, err := cl.Get(key); err != nil || !ok || string(v) != "reborn" {
		t.Fatalf("post-heal TTL set/get = (%q, %v, %v)", v, ok, err)
	}
}
