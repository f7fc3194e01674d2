package kvcluster

import (
	"sync/atomic"
	"time"

	"repro/internal/kvproto"
	"repro/internal/metrics"
)

// ErrNodeDown is returned for any operation whose owner node is
// currently ejected: the cluster fails the key fast instead of queueing
// behind a dead peer, so the rest of the ring keeps serving at full
// speed while the prober works the node back in.
var ErrNodeDown error = nodeDownError{}

type nodeDownError struct{}

func (nodeDownError) Error() string { return "kvcluster: node ejected" }

// NodeDown tells kvserver's request loop to answer the error
// "SERVER_ERROR node down".
func (nodeDownError) NodeDown() bool { return true }

// DefaultFailThreshold is how many consecutive failures (operation or
// probe) eject a node. Three tolerates an isolated timeout or RST
// without flapping while still reacting within a couple of probe
// intervals to a genuinely dead peer.
const DefaultFailThreshold = 3

// idleRedial is how long a pooled connection may sit unused before its
// next checkout re-dials it. A node reaps a connection idle past its
// ReadTimeout, and a write sent on a reaped connection comes back
// ambiguous — a few of those in a row would eject a healthy node — so a
// node's ReadTimeout must exceed this bound. A variable so tests can
// shorten it.
var idleRedial = time.Second

// pooledConn is one pooled client and when its last round trip ended.
type pooledConn struct {
	rc   *kvproto.ReconnectClient
	last time.Time
}

// nodePool owns one backend node's client connections and health state.
// Clients are kvproto.ReconnectClients (lazy dial, capped-backoff redial,
// never-replay-ambiguous-writes), kept in a buffered channel: checkout
// blocks when all PoolSize connections are in flight, which bounds the
// router's per-node concurrency without any extra accounting.
type nodePool struct {
	addr string
	idx  int
	free chan *pooledConn

	// ejected flips under mu-free atomics: the serving path only loads
	// it, the probe/failure paths CAS it, and the gauge/counter updates
	// ride on whichever CAS wins.
	ejected  atomic.Bool
	failures atomic.Int32 // consecutive failures since last success

	threshold int32
	up        *metrics.Gauge   // 1 serving, 0 ejected
	ejections *metrics.Counter // transitions into the ejected state
}

func newNodePool(addr string, idx, size int, threshold int32, up *metrics.Gauge, ejections *metrics.Counter, mk func() *kvproto.ReconnectClient) *nodePool {
	p := &nodePool{
		addr:      addr,
		idx:       idx,
		free:      make(chan *pooledConn, size),
		threshold: threshold,
		up:        up,
		ejections: ejections,
	}
	for i := 0; i < size; i++ {
		p.free <- &pooledConn{rc: mk()}
	}
	if up != nil {
		up.Set(1)
	}
	return p
}

// get checks out a client, failing fast if the node is ejected. The
// caller must return the client with put (or discard it with drop after
// closing) — the channel's capacity is the connection budget.
//
// The ejection check runs again after the (possibly long) wait on the
// free channel: a caller that blocked behind a full pool while the node
// was ejected would otherwise check out a client and burn a full
// operation timeout against a peer already known dead. The client goes
// straight back so the pool never leaks capacity on the fail-fast path.
func (p *nodePool) get() (*pooledConn, error) {
	if p.ejected.Load() {
		return nil, ErrNodeDown
	}
	c := <-p.free
	if p.ejected.Load() {
		p.free <- c
		return nil, ErrNodeDown
	}
	return c, nil
}

// put returns a checked-out client.
func (p *nodePool) put(c *pooledConn) { p.free <- c }

// noteSuccess records a successful round trip: the consecutive-failure
// run is over, and an ejected node that answered (the prober's probe)
// is reintegrated. Returns true if this call performed the
// reintegration.
func (p *nodePool) noteSuccess() bool {
	p.failures.Store(0)
	if p.ejected.CompareAndSwap(true, false) {
		if p.up != nil {
			p.up.Set(1)
		}
		return true
	}
	return false
}

// noteSuccessKeepEjected records a successful round trip without ever
// reintegrating: the consecutive-failure run resets, but an ejected
// node stays ejected. Replicated clusters route op-path successes here
// so that only the prober — which flushes the node first — can mark a
// recovered node up.
func (p *nodePool) noteSuccessKeepEjected() {
	p.failures.Store(0)
}

// noteFailure records a failed round trip; crossing the threshold ejects
// the node. Returns true if this call performed the ejection (exactly
// one caller wins the CAS, so the counter moves once per outage).
func (p *nodePool) noteFailure() bool {
	n := p.failures.Add(1)
	if n < p.threshold {
		return false
	}
	if p.ejected.CompareAndSwap(false, true) {
		if p.up != nil {
			p.up.Set(0)
		}
		if p.ejections != nil {
			p.ejections.Inc()
		}
		return true
	}
	return false
}
