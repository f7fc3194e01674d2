package faultnet

import (
	"io"
	"net"
	"sync"
	"time"
)

// Proxy is a TCP relay that forwards every accepted connection to a
// target address, injecting Config's connection faults on the
// client-facing side. Putting it between a server and its clients
// perturbs the wire (resets, stalls, partial segments, latency) without
// touching either endpoint — the topology cmd/kvchaos -topology node
// soaks.
type Proxy struct {
	ln     net.Listener
	target string
	cfg    Config

	mu     sync.Mutex
	rng    rng
	nconns uint64
	closed bool
	conns  map[net.Conn]struct{}

	wg sync.WaitGroup
	ct counters
}

// NewProxy listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// starts relaying to target immediately.
func NewProxy(addr, target string, cfg Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		ln:     ln,
		target: target,
		cfg:    cfg,
		rng:    newRNG(cfg.Seed ^ 0x94d049bb133111eb),
		conns:  make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr is the proxy's listen address for clients to dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats snapshots the faults injected on proxied connections.
func (p *Proxy) Stats() Stats { return p.ct.snapshot() }

func (p *Proxy) serve() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			return // listener closed
		}
		upstream, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			upstream.Close()
			return
		}
		p.nconns++
		seed := p.cfg.Seed ^ p.nconns*0x2545f4914f6cdd1d
		faulty := newConn(client, p.cfg, seed, &p.ct)
		p.conns[faulty] = struct{}{}
		p.conns[upstream] = struct{}{}
		p.wg.Add(2)
		p.mu.Unlock()
		go p.pipe(faulty, upstream)
		go p.pipe(upstream, faulty)
	}
}

// pipe copies one direction; when either direction dies (fault, close,
// EOF) both sides are torn down so the sibling pipe unblocks.
func (p *Proxy) pipe(dst, src net.Conn) {
	defer p.wg.Done()
	io.Copy(dst, src)
	dst.Close()
	src.Close()
	p.mu.Lock()
	delete(p.conns, dst)
	delete(p.conns, src)
	p.mu.Unlock()
}

// Close stops accepting, severs every proxied connection, and waits for
// all relay goroutines to exit (the proxy leaks nothing).
func (p *Proxy) Close() {
	p.mu.Lock()
	p.closed = true
	open := make([]net.Conn, 0, len(p.conns))
	for c := range p.conns {
		open = append(open, c)
	}
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range open {
		c.Close()
	}
	p.wg.Wait()
}
