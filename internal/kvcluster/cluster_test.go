package kvcluster

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/kvproto"
)

// replicatedCluster brings up n cache nodes and an R=2 Cluster over
// them. Probers are not started unless the test starts them; health is
// flipped by hand otherwise.
func replicatedCluster(t *testing.T, n int, mut func(*Config)) (*fleet.Fleet, *Cluster) {
	t.Helper()
	f, err := fleet.Start(n, func(int) fleet.NodeConfig { return nodeConfig() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	cfg := Config{
		Nodes:    f.Addrs(),
		Seed:     42,
		PoolSize: 2,
		Replicas: 2,
		Reconnect: kvproto.ReconnectConfig{
			DialTimeout: 500 * time.Millisecond,
			MaxAttempts: 2,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return f, cl
}

// keyWithPrimary returns a key whose replica set is [primary, other...].
func keyWithPrimary(t *testing.T, cl *Cluster, primary int) []byte {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		k := []byte(fmt.Sprintf("pk-%05d", i))
		if cl.ring.OwnerIndex(k) == primary {
			return k
		}
	}
	t.Fatal("no key with the requested primary in 10k tries")
	return nil
}

// TestClusterReplicatedWritesLandOnBothOwners: with R=2 over two nodes,
// a Set is acked by the primary and best-effort copied to the replica —
// both backends answer the key directly.
func TestClusterReplicatedWritesLandOnBothOwners(t *testing.T) {
	f, cl := replicatedCluster(t, 2, nil)
	key := []byte("both-owners")
	if err := cl.Set(key, 7, 0, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i, n := range f.Nodes {
		c, err := kvproto.DialTimeout(n.Addr(), 2*time.Second, 5*time.Second, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		v, ok, err := c.Get(key)
		c.Close()
		if err != nil || !ok || string(v) != "v1" {
			t.Fatalf("node %d: direct get = (%q, %v, %v), want replicated hit", i, v, ok, err)
		}
	}
	if got := cl.ReplicaWriteFailures(); got != 0 {
		t.Fatalf("ReplicaWriteFailures = %d with both nodes up", got)
	}
}

// TestClusterFailoverReadEjectedPrimary: an ejected primary redirects
// the read to the replica instead of failing the key, and the failover
// counter moves. Writes during the outage ack on the replica and count
// the skipped primary as divergence.
func TestClusterFailoverReadEjectedPrimary(t *testing.T) {
	_, cl := replicatedCluster(t, 2, nil)
	key := keyWithPrimary(t, cl, 0)
	if err := cl.Set(key, 1, 0, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < cl.cfg.FailThreshold; i++ {
		cl.pools[0].noteFailure()
	}
	if !cl.Ejected(0) {
		t.Fatal("primary not ejected")
	}

	v, ok, err := cl.Get(key)
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("failover Get = (%q, %v, %v), want v1 from replica", v, ok, err)
	}
	if cl.FailoverReads() == 0 {
		t.Fatal("failover read not counted")
	}

	// MultiGet groups the key onto the live replica at grouping time.
	hits := 0
	err = cl.MultiGet([][]byte{key}, func(i int, fl uint32, val []byte) {
		hits++
		if string(val) != "v1" {
			t.Fatalf("multiget failover value %q", val)
		}
	})
	if err != nil || hits != 1 {
		t.Fatalf("multiget with ejected primary: hits=%d err=%v", hits, err)
	}

	// A write during the outage: acked by the replica, divergence counted.
	before := cl.ReplicaWriteFailures()
	if err := cl.Set(key, 1, 0, []byte("v2")); err != nil {
		t.Fatalf("Set with ejected primary: %v", err)
	}
	if cl.ReplicaWriteFailures() <= before {
		t.Fatal("skipped replica write not counted as divergence")
	}
	if v, ok, _ := cl.Get(key); !ok || string(v) != "v2" {
		t.Fatalf("post-outage-write Get = (%q, %v), want v2", v, ok)
	}
}

// TestClusterCasFailoverYieldsExists documents the CAS failover
// contract: cas uniques are node-local, so a unique fetched from the
// primary before an outage cannot match the counter on the replica that
// becomes the synchronous owner — the cas answers CasExists instead of
// applying a stale swap. Failover costs a conflicted round trip, never
// a lost update. The caller's standard read-modify-write loop then
// converges on its own: a fresh Gets (a failover read answered by the
// replica) returns that node's unique, and the retry swaps cleanly.
func TestClusterCasFailoverYieldsExists(t *testing.T) {
	f, cl := replicatedCluster(t, 2, nil)
	key := keyWithPrimary(t, cl, 0)
	if err := cl.Set(key, 3, 0, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Desynchronize the two owners' cas counters the way any real history
	// does (each node's counter advances with its own store traffic): one
	// extra direct store against the primary alone.
	c, err := kvproto.DialTimeout(f.Nodes[0].Addr(), 2*time.Second, 5*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set(key, 3, 0, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// gets before the outage answers from the primary.
	_, _, id, ok, err := cl.Gets(key)
	if err != nil || !ok || id == 0 {
		t.Fatalf("pre-outage Gets = (id=%d, ok=%v, err=%v)", id, ok, err)
	}

	for i := 0; i < cl.cfg.FailThreshold; i++ {
		cl.pools[0].noteFailure()
	}
	if !cl.Ejected(0) {
		t.Fatal("primary not ejected")
	}

	// The cas gates on the new synchronous owner; the primary's unique
	// cannot match there, so the stale swap is refused.
	st, err := cl.Cas(key, 3, 0, id, []byte("lost-update"))
	if err != nil {
		t.Fatalf("failover Cas: %v", err)
	}
	if st != kvproto.CasExists {
		t.Fatalf("failover Cas with pre-outage unique = %v, want CasExists", st)
	}
	if v, ok, _ := cl.Get(key); !ok || string(v) != "v1" {
		t.Fatalf("value after refused swap = (%q, %v), want v1 untouched", v, ok)
	}

	// RMW retry: re-read (failover read from the replica), swap with the
	// fresh unique. The winning cas replicates as a plain set, and the
	// skipped ejected primary is counted as divergence like any Set's.
	divBefore := cl.ReplicaWriteFailures()
	_, _, id2, ok, err := cl.Gets(key)
	if err != nil || !ok || id2 == 0 {
		t.Fatalf("failover Gets = (id=%d, ok=%v, err=%v)", id2, ok, err)
	}
	if cl.FailoverReads() == 0 {
		t.Fatal("failover gets not counted as a failover read")
	}
	st, err = cl.Cas(key, 3, 0, id2, []byte("v2"))
	if err != nil || st != kvproto.CasStored {
		t.Fatalf("retry Cas = (%v, %v), want CasStored", st, err)
	}
	if cl.ReplicaWriteFailures() <= divBefore {
		t.Fatal("winning cas did not count the skipped primary as divergence")
	}
	if v, ok, _ := cl.Get(key); !ok || string(v) != "v2" {
		t.Fatalf("post-retry Get = (%q, %v), want v2", v, ok)
	}
}

// TestClusterMultiGetFailoverRetry: a node that dies without having
// been ejected fails its sub-get mid-burst; the retry pass re-routes
// those keys to their replicas, so the burst still answers every key.
func TestClusterMultiGetFailoverRetry(t *testing.T) {
	f, cl := replicatedCluster(t, 2, func(c *Config) {
		c.FailThreshold = 1000 // stay un-ejected through the whole test
	})
	keys, vals, flags := testCorpus(60)
	for _, k := range keys {
		if v, ok := vals[string(k)]; ok {
			if err := cl.Set(k, flags[string(k)], 0, v); err != nil {
				t.Fatalf("set %q: %v", k, err)
			}
		}
	}

	f.Nodes[1].Kill()

	got := make(map[int][]byte)
	err := cl.MultiGet(keys, func(i int, fl uint32, val []byte) {
		got[i] = append([]byte(nil), val...)
	})
	if err != nil {
		t.Fatalf("MultiGet with one dead un-ejected node: %v", err)
	}
	for i, k := range keys {
		want, hit := vals[string(k)]
		v, found := got[i]
		if hit != found {
			t.Fatalf("key %d (%s): hit=%v found=%v", i, k, hit, found)
		}
		if hit && !bytes.Equal(v, want) {
			t.Fatalf("key %d: value %q, want %q", i, v, want)
		}
	}
	if cl.FailoverReads() == 0 {
		t.Fatal("retry pass not counted as failover reads")
	}

	// Single-key Get on a dead-primary key fails over mid-op too: the
	// dial failure surfaces as an attempt error, never a client miss.
	var key []byte
	for _, k := range keys {
		if cl.ring.OwnerIndex(k) == 1 && vals[string(k)] != nil {
			key = k
			break
		}
	}
	if key == nil {
		t.Fatal("corpus has no hit key owned by the killed node")
	}
	if v, ok, err := cl.Get(key); err != nil || !ok || !bytes.Equal(v, vals[string(key)]) {
		t.Fatalf("Get with dead primary = (%q, %v, %v), want mid-op failover hit", v, ok, err)
	}
}

// TestClusterGetOneRetryPass: at R=3, a Get whose first two owners died
// without being ejected fails, naming the first-pass node, even though
// the third owner holds the value. Get is a one-key MultiGet, and a
// failed leg gets exactly one retry pass on each key's next live owner:
// that is the rule the router serves every get and gets by, so a
// single-key read must not walk further than a burst would.
func TestClusterGetOneRetryPass(t *testing.T) {
	f, cl := replicatedCluster(t, 3, func(c *Config) {
		c.Replicas = 3
		c.FailThreshold = 1000 // killed owners stay un-ejected
	})
	key := []byte("one-retry-pass")
	if err := cl.Set(key, 0, 0, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	owners := cl.ring.OwnerIndexes(key, 3)
	f.Nodes[owners[0]].Kill()
	f.Nodes[owners[1]].Kill()

	v, ok, err := cl.Get(key)
	if err == nil {
		t.Fatalf("Get with two dead owners = (%q, %v), want the first-pass node's error", v, ok)
	}
	if want := "kvcluster: get via " + f.Nodes[owners[0]].Addr() + ": "; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("Get error %q, want it to wrap %q", err, want)
	}
	if errors.Is(err, ErrNodeDown) {
		t.Fatalf("Get error %v is ErrNodeDown; neither owner was ejected", err)
	}
	if got := cl.FailoverReads(); got != 1 {
		t.Fatalf("FailoverReads = %d, want 1 (the single retry pass)", got)
	}
	if got := cl.m.failed[ixGet].Load(); got != 1 {
		t.Fatalf("failed gets = %d, want 1", got)
	}

	c, err := kvproto.DialTimeout(f.Nodes[owners[2]].Addr(), 2*time.Second, 5*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if v, ok, err := c.Get(key); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("third owner direct get = (%q, %v, %v), want its replica copy", v, ok, err)
	}
}

// TestClusterGetMalformedKey: a key the protocol rejects fails Get with
// the rejection itself, and no owner is ejected or moves toward it —
// the caller's mistake says nothing about node health. The retry pass
// covers any leg error, so the replica is asked too and rejects
// identically. The router never sends such a key: its parser rejects it
// first.
func TestClusterGetMalformedKey(t *testing.T) {
	_, cl := replicatedCluster(t, 2, nil)
	key := bytes.Repeat([]byte("k"), 251)
	v, ok, err := cl.Get(key)
	if !errors.As(err, new(*kvproto.ClientError)) {
		t.Fatalf("Get(251-byte key) = (%q, %v, %v), want a *kvproto.ClientError", v, ok, err)
	}
	if got := cl.FailoverReads(); got != 1 {
		t.Fatalf("FailoverReads = %d, want 1 (the retry pass asked the replica)", got)
	}
	for i, p := range cl.pools {
		if cl.Ejected(i) || p.failures.Load() != 0 {
			t.Fatalf("node %d: ejected=%v failures=%d after a rejected key", i, cl.Ejected(i), p.failures.Load())
		}
	}
}

// TestClusterFlushOnReintegrate: partition a node (cache stays hot),
// overwrite its keyspace through the survivor, heal it. The prober must
// flush the node before marking it up, so post-reintegration reads can
// miss but can never see the pre-outage version.
func TestClusterFlushOnReintegrate(t *testing.T) {
	f, cl := replicatedCluster(t, 2, func(c *Config) {
		c.ProbeInterval = 20 * time.Millisecond
		c.ProbeBackoffMax = 100 * time.Millisecond
	})
	cl.Start()

	key := keyWithPrimary(t, cl, 0)
	if err := cl.Set(key, 1, 0, []byte("old")); err != nil {
		t.Fatal(err)
	}

	f.Nodes[0].Partition()
	deadline := time.Now().Add(10 * time.Second)
	for !cl.Ejected(0) {
		if time.Now().After(deadline) {
			t.Fatal("partitioned node never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// New version acked by the survivor while node 0 still holds "old".
	if err := cl.Set(key, 1, 0, []byte("new")); err != nil {
		t.Fatal(err)
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

	if cl.ReintegrationFlushes() == 0 {
		t.Fatal("reintegration flush not counted")
	}
	if f.Nodes[0].Server().Flushes() == 0 {
		t.Fatal("reintegrated node was never flushed")
	}
	v, ok, err := cl.Get(key)
	if err != nil {
		t.Fatalf("post-reintegration Get: %v", err)
	}
	if ok && string(v) == "old" {
		t.Fatalf("stale read after reintegration: %q", v)
	}
}

// TestClusterStaleReadWithoutReintegrationFlush: the regression the
// barrier prevents, reproduced deliberately — with the flush disabled,
// a healed (not restarted) node serves its pre-outage version.
func TestClusterStaleReadWithoutReintegrationFlush(t *testing.T) {
	f, cl := replicatedCluster(t, 2, func(c *Config) {
		c.ProbeInterval = 20 * time.Millisecond
		c.ProbeBackoffMax = 100 * time.Millisecond
		c.DisableReintegrationFlush = true
	})
	cl.Start()

	key := keyWithPrimary(t, cl, 0)
	if err := cl.Set(key, 1, 0, []byte("old")); err != nil {
		t.Fatal(err)
	}

	f.Nodes[0].Partition()
	deadline := time.Now().Add(10 * time.Second)
	for !cl.Ejected(0) {
		if time.Now().After(deadline) {
			t.Fatal("partitioned node never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cl.Set(key, 1, 0, []byte("new")); err != nil {
		t.Fatal(err)
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

	v, ok, err := cl.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get = (%v, %v), want the stale hit this test exists to demonstrate", ok, err)
	}
	if string(v) != "old" {
		t.Fatalf("Get = %q, want the pre-outage %q", v, "old")
	}
	if cl.ReintegrationFlushes() != 0 {
		t.Fatal("flush barrier ran despite being disabled")
	}
}

// TestClusterOpPathNeverReintegratesReplicated: in replicated mode a
// stray op success against an ejected node must not mark it up — only
// the flushing prober may.
func TestClusterOpPathNeverReintegratesReplicated(t *testing.T) {
	_, cl := replicatedCluster(t, 2, nil)
	for i := 0; i < cl.cfg.FailThreshold; i++ {
		cl.pools[0].noteFailure()
	}
	if !cl.Ejected(0) {
		t.Fatal("node not ejected")
	}
	cl.observe(cl.pools[0], nil)
	if !cl.Ejected(0) {
		t.Fatal("op-path success reintegrated an ejected node in replicated mode")
	}
	// Single-replica clusters keep the old behavior: any success heals.
	cl2, err := New(Config{Nodes: cl.cfg.Nodes, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	for i := 0; i < cl2.cfg.FailThreshold; i++ {
		cl2.pools[0].noteFailure()
	}
	cl2.observe(cl2.pools[0], nil)
	if cl2.Ejected(0) {
		t.Fatal("op-path success failed to reintegrate in single-replica mode")
	}
}

// TestProbePhaseDecorrelated: probers get distinct, in-range initial
// delays — two nodes sharing a cluster seed must not fire their first
// probe at the same instant.
func TestProbePhaseDecorrelated(t *testing.T) {
	const interval = 250 * time.Millisecond
	seen := make(map[time.Duration]int)
	addrs := []string{"a:1", "b:1", "c:1", "d:1", "e:1", "f:1"}
	for _, addr := range addrs {
		ph := probePhase(probeSeed(9, addr), interval)
		if ph < 0 || ph >= interval {
			t.Fatalf("probePhase(%s) = %v, outside [0, %v)", addr, ph, interval)
		}
		seen[ph]++
	}
	if len(seen) < len(addrs) {
		t.Fatalf("probe phases collide: %v", seen)
	}
	if probePhase(probeSeed(9, "a:1"), interval) != probePhase(probeSeed(9, "a:1"), interval) {
		t.Fatal("probePhase not deterministic")
	}
	if probePhase(7, 0) != 0 {
		t.Fatal("probePhase with zero interval should be 0")
	}
}

// TestClusterCasCopyLandsBeforeTheNextCas: at R=2 a winning cas is
// copied to the replica after the primary acks it. If the primary is
// ejected while that copy is still on its way, a worker that reads the
// replica's older value must not win a cas there until the copy has
// landed: otherwise the copy then overwrites the worker's swap, and an
// acknowledged increment vanishes with no failed copy counted.
func TestClusterCasCopyLandsBeforeTheNextCas(t *testing.T) {
	var held atomic.Bool
	f, err := fleet.Start(2, func(i int) fleet.NodeConfig {
		nc := nodeConfig()
		if i == 1 {
			// Hold up the replica's copy of the first increment.
			nc.Server.FaultHook = func(req *kvproto.Request) {
				if req.Op == kvproto.OpSet && string(req.Value) == "1" && held.CompareAndSwap(false, true) {
					time.Sleep(300 * time.Millisecond)
				}
			}
		}
		return nc
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	cl, err := New(Config{Nodes: f.Addrs(), Seed: 42, PoolSize: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	key := keyWithPrimary(t, cl, 0)
	if err := cl.Set(key, 0, 0, []byte("0")); err != nil {
		t.Fatal(err)
	}
	increment := func() (kvproto.CasStatus, error) {
		v, _, id, ok, err := cl.Gets(key)
		if err != nil || !ok {
			return 0, fmt.Errorf("gets: ok=%v err=%v", ok, err)
		}
		n, _ := strconv.Atoi(string(v))
		return cl.Cas(key, 0, 0, id, []byte(strconv.Itoa(n+1)))
	}

	first := make(chan error, 1)
	go func() {
		st, err := increment()
		if err == nil && st != kvproto.CasStored {
			err = fmt.Errorf("first cas answered %v", st)
		}
		first <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if v, _ := directGet(t, f.Nodes[0].Addr(), key); v == "1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the primary never applied the first cas")
		}
	}
	for i := 0; i < DefaultFailThreshold; i++ {
		cl.pools[0].noteFailure()
	}
	// The replica now answers, possibly still holding "0".
	st, err := increment()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	acked := 1
	if st == kvproto.CasStored {
		acked++
	}
	if v, _ := directGet(t, f.Nodes[1].Addr(), key); v != strconv.Itoa(acked) {
		t.Fatalf("replica holds %q after %d acknowledged increments (%d replica copies counted failed)",
			v, acked, cl.ReplicaWriteFailures())
	}
}
