package kvcluster

// Tests for pipelined set runs through the router: a run reaches the
// Cluster as one SetBatch, scattered per node with sync and replica
// copies on one pipelined leg each. Per-key order must hold on every
// owner, the client's ack gates on the sync owner alone, and a leg that
// dies mid-stream must surface (sync) or count (replica) exactly the
// sets it left without a reply.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/kvproto"
)

// routerOver serves a Router over an R=replicas Cluster of nodes.
// Probers are not started: node health changes only through the ops.
func routerOver(t *testing.T, nodes []string, replicas int) (*Cluster, *Router, string) {
	t.Helper()
	cl, err := New(Config{
		Nodes:    nodes,
		Seed:     42,
		PoolSize: 2,
		Replicas: replicas,
		Reconnect: kvproto.ReconnectConfig{
			ReadTimeout: 2 * time.Second,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	r := NewRouter(cl, RouterConfig{WriteTimeout: 5 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve(ln)
	t.Cleanup(func() { r.Shutdown(ln, time.Second) })
	return cl, r, ln.Addr().String()
}

// dyingNode is a scripted backend whose first connection reads n
// pipelined sets, answers the first k STORED and closes; later
// connections answer every set STORED. seen counts every set it read.
func dyingNode(t *testing.T, n, k int) (addr string, seen *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	seen = new(atomic.Int64)
	go func() {
		for conns := 0; ; conns++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn, first bool) {
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				rd := kvproto.NewReader(conn)
				var req kvproto.Request
				for i := 0; ; i++ {
					if first && i == n {
						conn.Write([]byte(strings.Repeat("STORED\r\n", k)))
						return
					}
					if rd.Next(&req) != nil || req.Op != kvproto.OpSet {
						return
					}
					seen.Add(1)
					if !first {
						conn.Write([]byte("STORED\r\n"))
					}
				}
			}(conn, conns == 0)
		}
	}()
	return ln.Addr().String(), seen
}

// keysWithPrimary returns n keys whose primary owner is node primary.
func keysWithPrimary(t *testing.T, cl *Cluster, primary, n int) [][]byte {
	t.Helper()
	var keys [][]byte
	for i := 0; len(keys) < n && i < 100_000; i++ {
		k := []byte(fmt.Sprintf("run-%05d", i))
		if cl.ring.OwnerIndex(k) == primary {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("found %d keys with primary %d, want %d", len(keys), primary, n)
	}
	return keys
}

func setBurst(keys [][]byte) string {
	var b strings.Builder
	for i, k := range keys {
		v := fmt.Sprintf("val-%d", i)
		fmt.Fprintf(&b, "set %s 0 0 %d\r\n%s\r\n", k, len(v), v)
	}
	return b.String()
}

// directGet reads key straight from one node.
func directGet(t *testing.T, addr string, key []byte) (string, bool) {
	t.Helper()
	c, err := kvproto.DialTimeout(addr, 2*time.Second, 5*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, ok, err := c.Get(key)
	if err != nil {
		t.Fatalf("direct get %s from %s: %v", key, addr, err)
	}
	return string(v), ok
}

// TestRouterSetRunSameKeyBothOwners: at R=2, two pipelined sets to one
// key in one run travel in request order on both owners' legs, so both
// owners end up holding the second value — and the run cost one round
// trip per node, not two per set.
func TestRouterSetRunSameKeyBothOwners(t *testing.T) {
	f, err := fleet.Start(2, func(int) fleet.NodeConfig { return nodeConfig() })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	cl, _, addr := routerOver(t, f.Addrs(), 2)

	raw := rawBurst(t, addr, "set k 1 0 5\r\nfirst\r\nset k 2 0 6\r\nsecond\r\n", 2)
	if string(raw) != "STORED\r\nSTORED\r\n" {
		t.Fatalf("replies %q, want two STORED", raw)
	}
	for i, n := range f.Nodes {
		if v, ok := directGet(t, n.Addr(), []byte("k")); !ok || v != "second" {
			t.Errorf("node %d holds (%q, %v), want the second value", i, v, ok)
		}
		if rt := cl.m.nodeRTT[i].Count(); rt != 1 {
			t.Errorf("node %d: %d backend round trips, want 1 (one pipelined leg)", i, rt)
		}
	}
	if got := cl.ReplicaWriteFailures(); got != 0 {
		t.Errorf("replica write failures = %d on a fault-free fleet", got)
	}
}

// TestRouterSetRunSyncLegDies: the sync owner's leg reads the whole run,
// answers k sets and dies. The client sees k STORED, then SERVER_ERROR
// unacked for every later set — each counted once by the backend and
// forwarded once, never replayed. The replica leg rode the same scatter,
// so the replica holds every set.
func TestRouterSetRunSyncLegDies(t *testing.T) {
	const n, k = 6, 2
	live, err := fleet.StartNode(nodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Close)
	dying, seen := dyingNode(t, n, k)
	cl, r, addr := routerOver(t, []string{live.Addr(), dying}, 2)
	keys := keysWithPrimary(t, cl, 1, n)

	raw := rawBurst(t, addr, setBurst(keys), n)
	want := strings.Repeat("STORED\r\n", k) + strings.Repeat("SERVER_ERROR unacked\r\n", n-k)
	if string(raw) != want {
		t.Fatalf("replies %q, want %q", raw, want)
	}
	backend := cl.BackendCounters().Unacked.Load()
	if backend != n-k || r.UnackedReplies() != n-k || cl.ReplicaUnacked() != 0 {
		t.Errorf("unacked: backend %d, forwarded %d, replica %d; want %d == %d + 0",
			backend, r.UnackedReplies(), cl.ReplicaUnacked(), n-k, n-k)
	}
	for i, key := range keys {
		if v, ok := directGet(t, live.Addr(), key); !ok || v != fmt.Sprintf("val-%d", i) {
			t.Errorf("replica holds %s = (%q, %v), want val-%d", key, v, ok, i)
		}
	}
	if got := seen.Load(); got != n {
		t.Errorf("sync owner saw %d sets, want each of the %d once (none replayed)", got, n)
	}
}

// TestRouterSetRunReplicaLegDies: a replica leg that dies after k
// replies costs no client ack — every set answers STORED — and the
// replica copies it left without a reply are counted as replica write
// failures and replica ambiguity, once each, so backend unacked ==
// forwarded + replica-unacked still holds exactly.
func TestRouterSetRunReplicaLegDies(t *testing.T) {
	const n, k = 6, 2
	live, err := fleet.StartNode(nodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Close)
	dying, _ := dyingNode(t, n, k)
	cl, r, addr := routerOver(t, []string{live.Addr(), dying}, 2)
	keys := keysWithPrimary(t, cl, 0, n)

	raw := rawBurst(t, addr, setBurst(keys), n)
	if want := strings.Repeat("STORED\r\n", n); string(raw) != want {
		t.Fatalf("replies %q, want %q", raw, want)
	}
	backend, forwarded, replica := cl.BackendCounters().Unacked.Load(), r.UnackedReplies(), cl.ReplicaUnacked()
	if backend != forwarded+replica || forwarded != 0 || replica != n-k {
		t.Errorf("unacked: backend %d, forwarded %d, replica %d; want %d == 0 + %d",
			backend, forwarded, replica, n-k, n-k)
	}
	var expo bytes.Buffer
	if err := cl.Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		fmt.Sprintf("kvcluster_replica_write_failures_total %d\n", n-k),
		fmt.Sprintf("kvcluster_replica_unacked_total %d\n", n-k),
		`kvcluster_ops_failed_total{op="set"} 0` + "\n",
	} {
		if !strings.Contains(expo.String(), line) {
			t.Errorf("exposition lacks %q", line)
		}
	}
}

// TestClusterCleanSyncFailureMayLandOnReplica pins the set-run caveat
// of DESIGN §13: a set's replica copy rides the scatter beside its sync
// copy, so a set whose sync copy fails cleanly may still land on the
// replica. The primary is partitioned but, with a high FailThreshold,
// not yet ejected, so it stays the sync owner and its dials fail before
// anything is sent. Cas and delete wait for the sync owner's answer
// before copying, so under the same condition they leave the replica
// untouched.
func TestClusterCleanSyncFailureMayLandOnReplica(t *testing.T) {
	f, cl := replicatedCluster(t, 2, func(c *Config) { c.FailThreshold = 1000 })
	key := keyWithPrimary(t, cl, 0)
	f.Nodes[0].Partition() // before any op: no pooled connection to sever

	err := cl.Set(key, 0, 0, []byte("landed"))
	if err == nil || errors.Is(err, kvproto.ErrUnacked) {
		t.Fatalf("Set with the partitioned sync owner = %v, want a clean failure", err)
	}
	if cl.Ejected(0) {
		t.Fatal("primary ejected: the sync owner moved and the test shows nothing")
	}
	replica := f.Nodes[1].Addr()
	if v, ok := directGet(t, replica, key); !ok || v != "landed" {
		t.Fatalf("replica holds (%q, %v) after the failed set, want its copy \"landed\"", v, ok)
	}

	// A unique the replica would accept, so only the routing keeps the
	// cas off it.
	c, err := kvproto.DialTimeout(replica, 2*time.Second, 5*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	_, _, id, ok, err := c.Gets(key)
	c.Close()
	if err != nil || !ok {
		t.Fatalf("direct gets on the replica: ok=%v err=%v", ok, err)
	}
	if _, err := cl.Cas(key, 0, 0, id, []byte("swapped")); err == nil || errors.Is(err, kvproto.ErrUnacked) {
		t.Fatalf("Cas with the partitioned sync owner = %v, want a clean failure", err)
	}
	if _, err := cl.Delete(key); err == nil || errors.Is(err, kvproto.ErrUnacked) {
		t.Fatalf("Delete with the partitioned sync owner = %v, want a clean failure", err)
	}
	if v, ok := directGet(t, replica, key); !ok || v != "landed" {
		t.Fatalf("replica holds (%q, %v) after the failed cas and delete, want \"landed\" untouched", v, ok)
	}
}
