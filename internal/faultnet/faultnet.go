// Package faultnet wraps net.Listener and net.Conn with deterministic,
// seeded fault injection: transient accept failures, connection resets,
// added latency, partial reads/writes, and byte stalls. It exists so the
// serving stack's robustness claims can be exercised by tests and by the
// cmd/kvchaos drill (accept faults on every node in both topologies,
// the proxy in front of the node topology's server) instead of waiting
// for production to exercise them first.
//
// Determinism: every fault decision is drawn from a splitmix64 stream
// seeded by Config.Seed (each accepted connection derives its own
// substream), so a given seed produces the same fault mix run to run.
// Goroutine scheduling still interleaves connections differently, so the
// guarantee is a reproducible fault workload, not a bit-identical timeline.
package faultnet

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Config sets per-event fault probabilities (all in [0, 1]; zero disables
// the fault class). "Per event" means per Accept call for AcceptErrorRate
// and per Read/Write call for the rest.
type Config struct {
	Seed uint64 // fault-stream seed; same seed, same draw sequence

	AcceptErrorRate float64 // Accept returns a temporary net.Error instead of accepting

	ResetRate float64 // connection is hard-closed (RST where the transport allows)

	DelayRate float64       // sleep Delay before the I/O proceeds
	Delay     time.Duration // latency injected by DelayRate events

	PartialRate float64 // reads are truncated to 1 byte; writes are split in two

	StallRate float64       // sleep Stall mid-write (byte-stall / slow-loris shape)
	Stall     time.Duration // stall length for StallRate events
}

// Stats counts injected faults since the wrapper was created.
type Stats struct {
	AcceptErrors  uint64
	Resets        uint64
	Delays        uint64
	PartialReads  uint64
	PartialWrites uint64
	Stalls        uint64
}

// Total sums every injected fault class.
func (s Stats) Total() uint64 {
	return s.AcceptErrors + s.Resets + s.Delays + s.PartialReads + s.PartialWrites + s.Stalls
}

// counters is the shared atomic backing for Stats.
type counters struct {
	acceptErrors, resets, delays atomic.Uint64
	partialReads, partialWrites  atomic.Uint64
	stalls                       atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		AcceptErrors:  c.acceptErrors.Load(),
		Resets:        c.resets.Load(),
		Delays:        c.delays.Load(),
		PartialReads:  c.partialReads.Load(),
		PartialWrites: c.partialWrites.Load(),
		Stalls:        c.stalls.Load(),
	}
}

// rng is a splitmix64 stream: tiny, seedable, and good enough for fault
// scheduling (quality requirements here are "uncorrelated coin flips").
type rng struct{ state uint64 }

func newRNG(seed uint64) rng { return rng{state: seed ^ 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// chance draws one coin with probability p.
func (r *rng) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(r.next()>>11)/(1<<53) < p
}

// TempError is an injected transient Accept failure. It implements
// net.Error with Temporary() == true, the shape EMFILE/ECONNABORTED take
// in the standard library, so a correct accept loop retries it and a
// broken one dies — which is exactly what the harness wants to detect.
type TempError struct{}

func (*TempError) Error() string   { return "faultnet: injected temporary accept error" }
func (*TempError) Timeout() bool   { return false }
func (*TempError) Temporary() bool { return true }

// ResetError is returned by a Conn whose fault stream chose to reset it.
type ResetError struct{}

func (*ResetError) Error() string   { return "faultnet: injected connection reset" }
func (*ResetError) Timeout() bool   { return false }
func (*ResetError) Temporary() bool { return false }

// Listener wraps an inner listener: Accept sometimes fails with a
// TempError, and accepted connections are wrapped with the same Config's
// connection-level faults.
type Listener struct {
	net.Listener
	cfg Config

	mu     sync.Mutex
	rng    rng
	nconns uint64

	ct counters
}

// Wrap builds a fault-injecting listener around ln.
func Wrap(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, cfg: cfg, rng: newRNG(cfg.Seed)}
}

// Accept either injects a temporary error or accepts and wraps a
// connection with its own derived fault stream.
func (l *Listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	inject := l.rng.chance(l.cfg.AcceptErrorRate)
	var seed uint64
	if !inject {
		l.nconns++
		seed = l.cfg.Seed ^ l.nconns*0xbf58476d1ce4e5b9
	}
	l.mu.Unlock()
	if inject {
		l.ct.acceptErrors.Add(1)
		return nil, &TempError{}
	}
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return newConn(conn, l.cfg, seed, &l.ct), nil
}

// Stats snapshots the fault counters (listener plus its connections).
func (l *Listener) Stats() Stats { return l.ct.snapshot() }

// Conn wraps a net.Conn with per-call fault injection. Reads and writes
// may be delayed, truncated, stalled, or turned into a hard reset.
type Conn struct {
	net.Conn
	cfg Config
	ct  *counters

	mu  sync.Mutex // guards rng: Read and Write may race (proxy pipes)
	rng rng
}

// WrapConn builds a standalone fault-injecting connection (outside any
// Listener); its counters are private to the connection.
func WrapConn(conn net.Conn, cfg Config) *Conn {
	return newConn(conn, cfg, cfg.Seed, &counters{})
}

func newConn(conn net.Conn, cfg Config, seed uint64, ct *counters) *Conn {
	return &Conn{Conn: conn, cfg: cfg, ct: ct, rng: newRNG(seed)}
}

// decision is one I/O call's fault draw.
type decision struct {
	delay   bool
	reset   bool
	partial bool
	stall   bool
}

func (c *Conn) draw() decision {
	c.mu.Lock()
	d := decision{
		delay:   c.rng.chance(c.cfg.DelayRate),
		reset:   c.rng.chance(c.cfg.ResetRate),
		partial: c.rng.chance(c.cfg.PartialRate),
		stall:   c.rng.chance(c.cfg.StallRate),
	}
	c.mu.Unlock()
	return d
}

// reset hard-closes the connection; on TCP, linger 0 turns the close into
// an RST so the peer sees a genuine reset rather than a clean FIN.
func (c *Conn) reset() {
	c.ct.resets.Add(1)
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Conn.Close()
}

func (c *Conn) Read(p []byte) (int, error) {
	d := c.draw()
	if d.delay && c.cfg.Delay > 0 {
		c.ct.delays.Add(1)
		time.Sleep(c.cfg.Delay)
	}
	if d.reset {
		c.reset()
		return 0, &ResetError{}
	}
	if d.partial && len(p) > 1 {
		c.ct.partialReads.Add(1)
		p = p[:1]
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	d := c.draw()
	if d.delay && c.cfg.Delay > 0 {
		c.ct.delays.Add(1)
		time.Sleep(c.cfg.Delay)
	}
	if d.reset {
		c.reset()
		return 0, &ResetError{}
	}
	stall := func() {
		if d.stall && c.cfg.Stall > 0 {
			c.ct.stalls.Add(1)
			time.Sleep(c.cfg.Stall)
		}
	}
	if d.partial && len(p) > 1 {
		c.ct.partialWrites.Add(1)
		half := len(p) / 2
		n, err := c.Conn.Write(p[:half])
		if err != nil {
			return n, err
		}
		stall() // byte-stall between the halves: the slow-loris shape
		m, err := c.Conn.Write(p[half:])
		return n + m, err
	}
	stall()
	return c.Conn.Write(p)
}
