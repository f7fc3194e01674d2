package kvserver

// core is the hardened connection-serving substrate under the request
// loop: accept-loop retry with capped backoff, MaxConns overload
// shedding with SERVER_ERROR busy at accept time, per-connection panic
// isolation, and drain/force shutdown that leaks no goroutines. The
// loop is supplied by the Server; everything around it — lifecycle,
// bookkeeping, metrics — lives here, recorded into the Server's
// lifecycle instruments whichever Backend it serves.

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kvproto"
)

// core owns the connection set and the drain state; the handle callback
// runs one connection's request loop and may panic freely — a panic ends
// only that connection.
type core struct {
	maxConns int // 0 = unlimited
	logf     func(format string, args ...any)
	m        *serverMetrics
	handle   func(conn net.Conn)

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
	wg    sync.WaitGroup
	stop  chan struct{} // closed by Shutdown; unblocks accept backoff

	draining atomic.Bool
}

func newCore(maxConns int, logf func(format string, args ...any), m *serverMetrics, handle func(conn net.Conn)) *core {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &core{
		maxConns: maxConns,
		logf:     logf,
		m:        m,
		handle:   handle,
		conns:    make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
	}
}

// Draining reports whether Shutdown has begun.
func (c *core) Draining() bool { return c.draining.Load() }

// maxAcceptBackoff caps the transient-accept retry delay; 1s matches
// net/http's accept-loop behavior for sustained EMFILE pressure.
const maxAcceptBackoff = time.Second

// Serve accepts connections until the listener closes. Transient accept
// errors (temporary net.Errors and anything else while not draining) are
// retried with exponential backoff from 5ms to maxAcceptBackoff — a burst
// of EMFILE or ECONNABORTED must never kill the listener.
func (c *core) Serve(ln net.Listener) {
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if c.draining.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			c.m.acceptRetries.Inc()
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > maxAcceptBackoff {
				backoff = maxAcceptBackoff
			}
			c.logf("kvserver: accept error (retrying in %v): %v", backoff, err)
			select {
			case <-c.stop:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0

		c.mu.Lock()
		if c.done {
			c.mu.Unlock()
			conn.Close()
			return
		}
		if c.maxConns > 0 && len(c.conns) >= c.maxConns {
			c.mu.Unlock()
			c.shed(conn)
			continue
		}
		c.conns[conn] = struct{}{}
		c.wg.Add(1)
		c.mu.Unlock()
		c.m.connsOpened.Inc()
		c.m.connsActive.Add(1)
		go c.run(conn)
	}
}

// run wraps one connection's handler with the isolation and bookkeeping
// contract: a panic anywhere in the handler — a bug, a hostile request,
// an injected fault — is recovered, counted, and closes only this
// connection.
func (c *core) run(conn net.Conn) {
	defer func() {
		if r := recover(); r != nil {
			c.m.panicsRecovered.Inc()
			c.logf("kvserver: panic isolated to connection %v: %v", conn.RemoteAddr(), r)
		}
		conn.Close()
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
		c.m.connsClosed.Inc()
		c.m.connsActive.Add(-1)
		c.wg.Done()
	}()
	c.handle(conn)
}

// shed refuses a connection over the MaxConns bound: tell the client why
// (best effort, bounded write) and close. The client sees a well-formed
// SERVER_ERROR it can classify as retryable-after-backoff. A reply that
// fails to go out is still a shed, but it leaves the client guessing —
// count it so sustained failures are visible.
func (c *core) shed(conn net.Conn) {
	c.m.connsRejected.Inc()
	err := conn.SetWriteDeadline(time.Now().Add(time.Second))
	if err == nil {
		_, err = conn.Write(kvproto.BusyLine)
	}
	if err != nil {
		c.m.shedWriteFailures.Inc()
		c.logf("kvserver: shed reply to %v failed: %v", conn.RemoteAddr(), err)
	}
	conn.Close()
}

// Shutdown stops accepting, flips health to draining, gives in-flight
// requests the grace period, then force-closes whatever remains. After it
// returns, every connection goroutine has exited.
func (c *core) Shutdown(ln net.Listener, grace time.Duration) {
	c.draining.Store(true)
	c.mu.Lock()
	if !c.done {
		c.done = true
		close(c.stop)
	}
	c.mu.Unlock()
	ln.Close()

	drained := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(grace):
		c.mu.Lock()
		for conn := range c.conns {
			conn.Close()
		}
		c.mu.Unlock()
		<-drained
	}
}

// Wait blocks until every connection goroutine has exited.
func (c *core) Wait() { c.wg.Wait() }
