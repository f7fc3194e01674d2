package kvcluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/kvproto"
	"repro/internal/metrics"
)

// TestPoolEjectReintegrateHammer drives one node's health state from
// many goroutines at once — concurrent failure runs, successes, and
// fail-fast checkouts — the interleaving the router's serving path and
// the prober produce against a flapping node. Run under -race, the
// point is that the atomics compose: the gauge always lands on the
// final ejected state, ejections count transitions (not failure calls),
// and checkout never hands out a client while ejected without the
// channel budget surviving intact.
func TestPoolEjectReintegrateHammer(t *testing.T) {
	reg := metrics.NewRegistry()
	up := reg.Gauge("test_up", "", "t")
	ej := reg.Counter("test_ej", "", "t")
	const size = 4
	p := newNodePool("127.0.0.1:1", 0, size, 3, up, ej, func() *kvproto.ReconnectClient {
		// Never dialed: the hammer only exercises checkout accounting.
		return kvproto.NewReconnect("127.0.0.1:1", kvproto.ReconnectConfig{})
	})

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < iters; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				switch rng % 4 {
				case 0:
					p.noteFailure()
				case 1:
					p.noteSuccess()
				default:
					c, err := p.get()
					if err != nil {
						if !errors.Is(err, ErrNodeDown) {
							t.Errorf("checkout error: %v", err)
						}
						continue
					}
					p.put(c)
				}
			}
		}(w)
	}
	wg.Wait()

	// Settle into a known state and check the instruments agree.
	for i := 0; i < 3; i++ {
		p.noteFailure()
	}
	if !p.ejected.Load() {
		t.Fatal("three consecutive failures did not eject")
	}
	if up.Load() != 0 {
		t.Errorf("up gauge %d while ejected, want 0", up.Load())
	}
	if _, err := p.get(); !errors.Is(err, ErrNodeDown) {
		t.Errorf("checkout while ejected: err=%v, want ErrNodeDown", err)
	}
	before := ej.Load()
	if before == 0 {
		t.Error("no ejections counted across the hammer")
	}
	p.noteSuccess()
	if p.ejected.Load() || up.Load() != 1 {
		t.Errorf("reintegration failed: ejected=%v up=%d", p.ejected.Load(), up.Load())
	}
	// The full connection budget survived the hammer.
	if got := len(p.free); got != size {
		t.Errorf("pool holds %d clients, want %d", got, size)
	}
	// Eject again: the counter moves exactly once per transition.
	for i := 0; i < 6; i++ {
		p.noteFailure()
	}
	if ej.Load() != before+1 {
		t.Errorf("ejections %d after one more outage, want %d", ej.Load(), before+1)
	}
}

// TestPoolBlockedWaiterFailsFastOnEjection: a checkout that blocked
// behind a full pool while the node was healthy must fail fast with
// ErrNodeDown when the ejection lands mid-wait, not check out a client
// and burn a full operation timeout against a peer already known dead.
// Regression test: get() used to check ejected only before blocking on
// the free channel, so a waiter that entered the wait pre-ejection got a
// client post-ejection. Run under -race alongside the hammer.
func TestPoolBlockedWaiterFailsFastOnEjection(t *testing.T) {
	const size = 2
	p := newNodePool("127.0.0.1:1", 0, size, 3, nil, nil, func() *kvproto.ReconnectClient {
		// Never dialed: the test only exercises checkout accounting.
		return kvproto.NewReconnect("127.0.0.1:1", kvproto.ReconnectConfig{})
	})

	// Drain the pool so the next get() blocks on the channel.
	held := make([]*pooledConn, 0, size)
	for i := 0; i < size; i++ {
		c, err := p.get()
		if err != nil {
			t.Fatalf("warm checkout %d: %v", i, err)
		}
		held = append(held, c)
	}

	type result struct {
		c   *pooledConn
		err error
	}
	got := make(chan result, 1)
	go func() {
		c, err := p.get()
		got <- result{c, err}
	}()

	// Let the waiter reach the channel receive, then eject and return one
	// client. The waiter wakes holding a client for a dead node — the fix
	// makes it put the client back and fail fast.
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < 3; i++ {
		p.noteFailure()
	}
	p.put(held[0])

	select {
	case r := <-got:
		if !errors.Is(r.err, ErrNodeDown) {
			t.Fatalf("blocked waiter got (%v, %v), want ErrNodeDown", r.c, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked waiter neither failed fast nor checked out")
	}

	// The fail-fast path must not leak capacity: the returned client went
	// back to the channel, so the budget is intact (1 free + 1 held).
	if free := len(p.free); free != 1 {
		t.Fatalf("pool holds %d free clients after fail-fast, want 1", free)
	}
	p.put(held[1])
	if free := len(p.free); free != size {
		t.Fatalf("pool holds %d free clients after returns, want %d", free, size)
	}
}

// TestPoolIdleConnectionRedials: a warm pool left idle past its node's
// read deadline has every connection reaped by the node. Writes through
// it afterwards must re-dial rather than go out on the dead streams,
// where each would come back ErrUnacked and FailThreshold of them would
// eject a healthy node (at R=2, flushing acked values on its return).
func TestPoolIdleConnectionRedials(t *testing.T) {
	defer func(d time.Duration) { idleRedial = d }(idleRedial)
	idleRedial = 100 * time.Millisecond
	f, err := fleet.Start(2, func(int) fleet.NodeConfig {
		nc := nodeConfig()
		nc.Server.ReadTimeout = 200 * time.Millisecond
		return nc
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	cl, err := New(Config{Nodes: f.Addrs(), Seed: 42, PoolSize: 4, FailThreshold: 3, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	set := func(i int) error {
		return cl.Set([]byte(fmt.Sprintf("idle%d", i%16)), 0, 0, []byte("v"))
	}
	// Warm every pooled connection on both nodes: concurrent sets check
	// out distinct clients.
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := set(i); err != nil {
				t.Errorf("warm set %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	time.Sleep(500 * time.Millisecond) // past the nodes' 200ms read deadline

	for i := 0; i < 16; i++ {
		if err := set(i); err != nil {
			t.Fatalf("set %d after the idle pause: %v", i, err)
		}
	}
	if n := cl.BackendCounters().Unacked.Load(); n != 0 {
		t.Errorf("%d backend writes came back ambiguous after the idle pause, want 0", n)
	}
	for i := range f.Nodes {
		if cl.Ejected(i) || cl.Ejections(i) != 0 {
			t.Errorf("healthy node %d ejected by the idle pause (%d ejections)", i, cl.Ejections(i))
		}
	}
	if n := cl.ReplicaWriteFailures(); n != 0 {
		t.Errorf("%d replica copies failed after the idle pause, want 0", n)
	}
}
