// Package fleet brings up in-process adaptcached node fleets for chaos
// drivers, gates, and tests: each node is a real kvserver on a loopback
// listener, optionally behind faultnet accept-fault wrapping and a
// faultnet proxy, with kill/restart that keeps the node's address
// stable across the outage. Both topologies of cmd/kvchaos (a single
// node under fault injection, a routed fleet through a kill or
// partition) come up through this harness.
//
// Restart deliberately starts a fresh, empty cache: a cache node that
// lost its memory is the easy failure mode (misses are always legal),
// and it is exactly what a crashed adaptcached process looks like to
// the routing tier.
package fleet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/faultnet"
	"repro/internal/kvserver"
)

// NodeConfig assembles one node.
type NodeConfig struct {
	// Server configures the kvserver instance (cache geometry, timeouts,
	// MaxConns, FaultHook). Reused verbatim on Restart.
	Server kvserver.Config

	// ListenFaults, when non-nil, wraps the node's listener with
	// faultnet accept-error injection.
	ListenFaults *faultnet.Config

	// ProxyFaults, when non-nil, puts a faultnet proxy in front of the
	// node; Addr() then returns the proxy address, which stays stable
	// across Kill/Restart while the backend behind it dies and returns.
	ProxyFaults *faultnet.Config
}

// Node is one running (or killed) cache server.
type Node struct {
	cfg NodeConfig

	mu          sync.Mutex
	srv         *kvserver.Server
	ln          net.Listener       // base listener; nil while killed or partitioned
	wrapped     net.Listener       // fault-wrapped view served from (== ln when unwrapped)
	proxy       *faultnet.Proxy    // nil unless ProxyFaults
	addr        string             // server address, stable across restarts
	flis        *faultnet.Listener // non-nil when ListenFaults wrapped
	tracker     *connTracker       // outermost listener; lets Partition sever live conns
	partitioned bool               // true between Partition and Heal
}

// connTracker records every connection the server accepts so Partition
// can sever them. Accept returns the connection unwrapped — wrapping
// would hide *net.TCPConn from net.Buffers.WriteTo and silently disable
// the server's vectored-write path — so entries are only dropped when
// severAll closes them or the tracker is replaced; for a test-harness
// node that is a bounded, short-lived map.
type connTracker struct {
	net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

func newConnTracker(ln net.Listener) *connTracker {
	return &connTracker{Listener: ln, conns: make(map[net.Conn]struct{})}
}

func (t *connTracker) Accept() (net.Conn, error) {
	c, err := t.Listener.Accept()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.conns[c] = struct{}{}
	t.mu.Unlock()
	return c, nil
}

// severAll force-closes every connection accepted through the tracker.
// Closing an already-closed conn is a harmless error.
func (t *connTracker) severAll() {
	t.mu.Lock()
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	clear(t.conns)
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// StartNode listens on an ephemeral loopback port and serves cfg.
func StartNode(cfg NodeConfig) (*Node, error) {
	n := &Node{cfg: cfg}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet: listen: %w", err)
	}
	n.addr = ln.Addr().String()
	n.serveLocked(ln)
	if cfg.ProxyFaults != nil {
		p, err := faultnet.NewProxy("127.0.0.1:0", n.addr, *cfg.ProxyFaults)
		if err != nil {
			n.Kill()
			return nil, fmt.Errorf("fleet: proxy: %w", err)
		}
		n.proxy = p
	}
	return n, nil
}

// serveLocked builds a fresh server on ln and starts serving. Callers
// hold no lock during StartNode (unshared) and mu during Restart.
func (n *Node) serveLocked(ln net.Listener) {
	n.srv = kvserver.New(n.cfg.Server)
	n.attachLocked(ln)
}

// attachLocked points the node's existing server at ln (fault wrapping
// and conn tracking applied) and starts serving from it.
func (n *Node) attachLocked(ln net.Listener) {
	n.ln = ln
	n.wrapped = ln
	n.flis = nil
	if n.cfg.ListenFaults != nil {
		n.flis = faultnet.Wrap(ln, *n.cfg.ListenFaults)
		n.wrapped = n.flis
	}
	n.tracker = newConnTracker(n.wrapped)
	n.partitioned = false
	go n.srv.Serve(n.tracker)
}

// Addr is the address clients should dial: the proxy when one is
// configured, the server otherwise. Stable across Kill/Restart.
func (n *Node) Addr() string {
	if n.proxy != nil {
		return n.proxy.Addr()
	}
	return n.addr
}

// ServerAddr is the server's own address, bypassing any proxy.
func (n *Node) ServerAddr() string { return n.addr }

// Server returns the current kvserver instance (a fresh one after each
// Restart); nil while killed.
func (n *Node) Server() *kvserver.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.srv
}

// ListenStats returns the accept-fault injection tallies, zero when the
// node runs unwrapped.
func (n *Node) ListenStats() faultnet.Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.flis == nil {
		return faultnet.Stats{}
	}
	return n.flis.Stats()
}

// ProxyStats returns the client-facing proxy's fault tallies, zero when
// no proxy is configured.
func (n *Node) ProxyStats() faultnet.Stats {
	if n.proxy == nil {
		return faultnet.Stats{}
	}
	return n.proxy.Stats()
}

// Kill stops the node hard: the listener closes (new dials are refused),
// in-flight connections are force-closed with zero grace, and every
// handler goroutine exits before Kill returns. The proxy, if any, stays
// up — its clients see dead-backend behavior, which is the realistic
// view of a crashed process behind a load balancer.
func (n *Node) Kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln == nil {
		return
	}
	n.srv.Shutdown(n.ln, 0)
	n.ln = nil
}

// Restart re-listens on the node's original address with a fresh, empty
// cache. The port was just released by Kill, but the OS may lag a
// moment; a short retry loop absorbs that.
func (n *Node) Restart() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln != nil {
		return fmt.Errorf("fleet: node %s already running", n.addr)
	}
	ln, err := n.relistenLocked()
	if err != nil {
		return err
	}
	n.serveLocked(ln)
	return nil
}

// relistenLocked reopens the node's original address, absorbing the
// OS's release lag with a short retry loop.
func (n *Node) relistenLocked() (net.Listener, error) {
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", n.addr)
		if err == nil {
			return ln, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return nil, fmt.Errorf("fleet: re-listen on %s: %w", n.addr, err)
}

// Partition severs the node from the network without stopping it: the
// listener closes (the serving loop exits on net.ErrClosed without
// draining), established connections are force-closed, but the server
// and its cache stay hot. To the routing tier this is indistinguishable
// from Kill — dials are refused either way — but unlike a restart the
// node later returns with its pre-outage contents intact, which is
// exactly the stale-replica hazard flush-on-reintegrate exists for.
func (n *Node) Partition() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln == nil {
		return
	}
	n.ln.Close()
	n.tracker.severAll()
	n.ln = nil
	n.partitioned = true
}

// Heal reopens the listener after a Partition, resuming service from
// the same server and the same still-populated cache.
func (n *Node) Heal() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln != nil {
		return fmt.Errorf("fleet: node %s already running", n.addr)
	}
	if !n.partitioned {
		return fmt.Errorf("fleet: node %s was killed, not partitioned; use Restart", n.addr)
	}
	ln, err := n.relistenLocked()
	if err != nil {
		return err
	}
	n.attachLocked(ln)
	return nil
}

// Close tears the node down: proxy first (no new client traffic), then
// the server with a small grace period.
func (n *Node) Close() {
	if n.proxy != nil {
		n.proxy.Close()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ln != nil {
		n.srv.Shutdown(n.ln, time.Second)
		n.ln = nil
	}
}

// Fleet is a set of nodes started together.
type Fleet struct {
	Nodes []*Node
}

// Start brings up count nodes; mk supplies each node's config (called
// with the node index). On any failure the already-started nodes are
// closed.
func Start(count int, mk func(i int) NodeConfig) (*Fleet, error) {
	f := &Fleet{}
	for i := 0; i < count; i++ {
		n, err := StartNode(mk(i))
		if err != nil {
			f.Close()
			return nil, err
		}
		f.Nodes = append(f.Nodes, n)
	}
	return f, nil
}

// Addrs returns each node's client-facing address, in index order.
func (f *Fleet) Addrs() []string {
	addrs := make([]string, len(f.Nodes))
	for i, n := range f.Nodes {
		addrs[i] = n.Addr()
	}
	return addrs
}

// Close tears every node down.
func (f *Fleet) Close() {
	for _, n := range f.Nodes {
		n.Close()
	}
}
