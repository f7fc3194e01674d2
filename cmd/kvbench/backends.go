package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/adaptivekv"
	"repro/internal/core"
	"repro/internal/kvcluster"
	"repro/internal/kvproto"
	"repro/internal/kvserver"
)

// backend executes one batch of requests, filling in their outcomes and
// passing every returned value to the session for checking. An error
// means the connection is unusable; a failed request is reported in its
// err field instead.
type backend interface {
	do(batch []*request, s session) error
}

// replyTimeout bounds every reply wait, so a wedged server fails the run
// instead of hanging it.
const replyTimeout = 10 * time.Second

// protoBackend talks to a server or router through kvproto.Client,
// pipelining each batch: all requests are written in one flush, then all
// replies are read.
type protoBackend struct {
	conn    net.Conn
	br      *bufio.Reader
	c       *kvproto.Client
	pending []byte // the batch being written
	val     []byte
}

// bufferedConn sits between kvproto.Client and the connection. Reads go
// through the backend's own reader, which also parses multi-key gets
// replies (kvproto.Client reads only single-key ones); every reply byte
// of a batch is consumed before the next batch is sent, so the client's
// read buffer is empty whenever the backend reads from br directly.
// Writes are held until the batch is complete and go out in one write
// (see maxStores).
type bufferedConn struct {
	net.Conn
	br      *bufio.Reader
	pending *[]byte
}

func (c bufferedConn) Read(p []byte) (int, error) { return c.br.Read(p) }

func (c bufferedConn) Write(p []byte) (int, error) {
	*c.pending = append(*c.pending, p...)
	return len(p), nil
}

func newProtoBackend(conn net.Conn) *protoBackend {
	b := &protoBackend{conn: conn, br: bufio.NewReaderSize(conn, 4096)}
	b.c = kvproto.NewClient(bufferedConn{conn, b.br, &b.pending})
	b.c.SetTimeouts(replyTimeout, replyTimeout)
	return b
}

// flush writes the held batch; the client has armed the write deadline.
func (b *protoBackend) flush() error {
	if err := b.c.Flush(); err != nil {
		return err
	}
	_, err := b.conn.Write(b.pending)
	b.pending = b.pending[:0]
	return err
}

func (b *protoBackend) close() { b.c.Close() }

func (b *protoBackend) do(batch []*request, s session) error {
	if len(batch) == 1 && batch[0].op == kvproto.OpGets && len(batch[0].keys) > 1 {
		return b.multiGets(batch[0], s)
	}
	for _, r := range batch {
		switch r.op {
		case kvproto.OpGet:
			if len(r.keys) == 1 {
				b.c.SendGet(r.keys[0])
			} else {
				b.c.SendMultiGet(r.keys)
			}
		case kvproto.OpGets:
			if len(r.keys) > 1 {
				panic("kvbench: a multi-key gets must be alone in its batch")
			}
			b.c.SendGets(r.keys[0])
		case kvproto.OpSet:
			b.c.SendSet(r.keys[0], 0, r.exptime, r.value)
		case kvproto.OpCas:
			b.c.SendCas(r.keys[0], 0, r.exptime, r.casid, r.value)
		}
	}
	if err := b.flush(); err != nil {
		return err
	}
	for _, r := range batch {
		var err error
		switch r.op {
		case kvproto.OpGet:
			if len(r.keys) == 1 {
				var val []byte
				if val, r.hit[0], err = b.c.ReadGetReply(); r.hit[0] {
					s.value(r, 0, val)
				}
			} else {
				err = b.c.ReadMultiGetReply(r.keys, func(i int, _ uint32, val []byte) {
					r.hit[i] = true
					s.value(r, i, val)
				})
			}
		case kvproto.OpGets:
			var val []byte
			if val, _, r.casids[0], r.hit[0], err = b.c.ReadGetsReply(); r.hit[0] {
				s.value(r, 0, val)
			}
		case kvproto.OpSet:
			err = b.c.ReadSetReply()
		case kvproto.OpCas:
			r.status, err = b.c.ReadCasReply()
		}
		if err != nil {
			if !kvproto.Recoverable(err) {
				return err
			}
			r.err = err
		}
	}
	return nil
}

// multiGets sends "gets k1 ... kn" and reads the reply from br.
func (b *protoBackend) multiGets(r *request, s session) error {
	b.pending = append(b.pending, "gets"...)
	for _, k := range r.keys {
		b.pending = append(append(b.pending, ' '), k...)
	}
	b.pending = append(b.pending, "\r\n"...)
	if err := b.flush(); err != nil {
		return err
	}
	if err := b.conn.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
		return err
	}
	return readGetsReply(b.br, r, s, &b.val)
}

var (
	valuePrefix       = []byte("VALUE ")
	serverErrorPrefix = []byte("SERVER_ERROR ")
	endLine           = []byte("END")
)

// readGetsReply reads the reply to a multi-key gets: a VALUE line with a
// cas unique and a data block per hit, in request order, then END — or
// SERVER_ERROR in place of END when a router lost an owner mid-request.
func readGetsReply(br *bufio.Reader, r *request, s session, buf *[]byte) error {
	next := 0
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.Equal(line, endLine):
			return nil
		case bytes.HasPrefix(line, serverErrorPrefix):
			r.err = &kvproto.ServerError{Msg: string(line[len(serverErrorPrefix):])}
			return nil
		case !bytes.HasPrefix(line, valuePrefix):
			return fmt.Errorf("kvbench: unexpected gets reply %q", line)
		}
		f := bytes.Fields(line[len(valuePrefix):])
		if len(f) != 4 {
			return fmt.Errorf("kvbench: malformed gets reply %q", line)
		}
		size, errN := strconv.Atoi(string(f[2]))
		casid, errC := strconv.ParseUint(string(f[3]), 10, 64)
		if errN != nil || errC != nil || size < 0 || size > kvproto.MaxValueBytes {
			return fmt.Errorf("kvbench: malformed gets reply %q", line)
		}
		for next < len(r.keys) && !bytes.Equal(r.keys[next], f[0]) {
			next++
		}
		if next == len(r.keys) {
			return fmt.Errorf("kvbench: gets reply for a key not requested: %q", line)
		}
		i := next
		next++
		if cap(*buf) < size+2 {
			*buf = make([]byte, size+2)
		}
		data := (*buf)[:size+2]
		if _, err := io.ReadFull(br, data); err != nil {
			return err
		}
		r.hit[i], r.casids[i] = true, casid
		s.value(r, i, data[:size])
	}
}

// pipeListener serves a kvserver over net.Pipe: the in-memory rung of
// the ladder, with the same handler but no kernel in the path. A pipe is
// unbuffered, so clients must not pipeline over it: a server blocked
// writing replies would never read the rest of the batch.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// cacheBackend runs requests against an adaptivekv cache in process, the
// way kvserver dispatches them: consecutive gets form one GetBatch run, a
// gets is one GetBatchCas, stored values are copied.
type cacheBackend struct {
	c      *adaptivekv.Cache[string, kvserver.Value]
	keys   []string
	vals   []kvserver.Value
	oks    []bool
	casids []uint64

	getNS []float64 // per key, one sample per GetBatch or GetBatchCas call
	setNS []float64 // per SetTTL
}

func (b *cacheBackend) do(batch []*request, s session) error {
	for i := 0; i < len(batch); {
		j := i + 1
		if batch[i].op == kvproto.OpGet {
			for j < len(batch) && batch[j].op == kvproto.OpGet {
				j++
			}
		}
		switch r := batch[i]; r.op {
		case kvproto.OpGet, kvproto.OpGets:
			b.read(batch[i:j], r.op == kvproto.OpGets, s)
		case kvproto.OpSet:
			k, v := string(r.keys[0]), kvserver.Value{Data: append([]byte(nil), r.value...)}
			deadline := kvproto.DeadlineNanos(r.exptime, time.Now())
			t0 := time.Now()
			b.c.SetTTL(k, v, deadline)
			b.setNS = append(b.setNS, float64(time.Since(t0)))
		case kvproto.OpCas:
			k, v := string(r.keys[0]), kvserver.Value{Data: append([]byte(nil), r.value...)}
			switch b.c.CompareAndSwap(k, v, r.casid, kvproto.DeadlineNanos(r.exptime, time.Now())) {
			case adaptivekv.CasStored:
				r.status = kvproto.CasStored
			case adaptivekv.CasExists:
				r.status = kvproto.CasExists
			default:
				r.status = kvproto.CasNotFound
			}
		}
		i = j
	}
	return nil
}

func (b *cacheBackend) read(run []*request, withCas bool, s session) {
	b.keys = b.keys[:0]
	for _, r := range run {
		for _, k := range r.keys {
			b.keys = append(b.keys, string(k))
		}
	}
	n := len(b.keys)
	if cap(b.vals) < n {
		b.vals, b.oks, b.casids = make([]kvserver.Value, n), make([]bool, n), make([]uint64, n)
	}
	vals, oks, casids := b.vals[:n], b.oks[:n], b.casids[:n]
	t0 := time.Now()
	if withCas {
		b.c.GetBatchCas(b.keys, vals, casids, oks)
	} else {
		b.c.GetBatch(b.keys, vals, oks)
	}
	b.getNS = append(b.getNS, float64(time.Since(t0))/float64(n))
	idx := 0
	for _, r := range run {
		for i := range r.keys {
			if oks[idx] {
				r.hit[i], r.vals[i], r.casids[i] = true, vals[idx].Data, casids[idx]
				s.value(r, i, vals[idx].Data)
			}
			idx++
		}
	}
}

func (b *cacheBackend) evictions() uint64 { return b.c.Stats().Evictions }

// engineBackend runs requests against bare core.Engine decision engines,
// one per shard, with adaptivekv's geometry, policy and key placement: a
// get is a Lookup, a set a Store, a cas a Lookup. No values are stored.
type engineBackend struct {
	shards   []*core.Engine
	setMask  uint64
	setShift uint

	lookupNS, storeNS []float64
}

func newEngineBackend(cfg adaptivekv.Config) *engineBackend {
	e := &engineBackend{setMask: uint64(cfg.Sets - 1)}
	for s := cfg.Sets; s > 1; s >>= 1 {
		e.setShift++
	}
	for range cfg.Shards {
		pol := core.NewSBAR(core.DefaultComponents(),
			core.WithLeaderSets(core.DefaultLeaderSets),
			core.WithLeaderOptions(core.WithShadowTagBits(8)))
		e.shards = append(e.shards, core.NewEngine(core.EngineGeometry(cfg.Sets, cfg.Ways), pol))
	}
	return e
}

// locate mirrors adaptivekv's placement: FNV-1a of the key through a
// splitmix64 finalizer, shard from the top bits, set from the low bits,
// the set bits shifted out of the tag.
func (e *engineBackend) locate(key []byte) (*core.Engine, int, uint64) {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return e.shards[(h>>48)&uint64(len(e.shards)-1)], int(h & e.setMask), h >> e.setShift
}

func (e *engineBackend) do(batch []*request, _ session) error {
	for _, r := range batch {
		switch r.op {
		case kvproto.OpGet, kvproto.OpGets:
			for i, k := range r.keys {
				eng, set, tag := e.locate(k)
				t0 := time.Now()
				_, r.hit[i] = eng.Lookup(set, tag)
				e.lookupNS = append(e.lookupNS, float64(time.Since(t0)))
			}
		case kvproto.OpSet:
			eng, set, tag := e.locate(r.keys[0])
			t0 := time.Now()
			eng.Store(set, tag)
			e.storeNS = append(e.storeNS, float64(time.Since(t0)))
		case kvproto.OpCas:
			eng, set, tag := e.locate(r.keys[0])
			t0 := time.Now()
			_, ok := eng.Lookup(set, tag)
			e.lookupNS = append(e.lookupNS, float64(time.Since(t0)))
			r.status = kvproto.CasNotFound
			if ok {
				r.status = kvproto.CasStored
			}
		}
	}
	return nil
}

func (e *engineBackend) evictions() uint64 {
	var n uint64
	for _, eng := range e.shards {
		n += eng.Stats().Evictions
	}
	return n
}

func (e *engineBackend) switches() uint64 {
	var n uint64
	for _, eng := range e.shards {
		n += eng.PolicySwitches()
	}
	return n
}

// clusterBackend calls the kvcluster.Cluster API directly, the way the
// router does: every get is a MultiGet, a gets is one Gets per key.
type clusterBackend struct {
	cl *kvcluster.Cluster

	getNS []float64 // per MultiGet call
	setNS []float64 // per Set call
}

func (b *clusterBackend) do(batch []*request, s session) error {
	for _, r := range batch {
		t0 := time.Now()
		switch r.op {
		case kvproto.OpGet:
			r.err = b.cl.MultiGet(r.keys, func(i int, _ uint32, val []byte) {
				r.hit[i] = true
				s.value(r, i, val)
			})
			b.getNS = append(b.getNS, float64(time.Since(t0)))
		case kvproto.OpGets:
			for i, k := range r.keys {
				val, _, casid, ok, err := b.cl.Gets(k)
				if err != nil {
					r.err = err
					break
				}
				if ok {
					r.hit[i], r.casids[i] = true, casid
					s.value(r, i, val)
				}
			}
		case kvproto.OpSet:
			r.err = b.cl.Set(r.keys[0], 0, r.exptime, r.value)
			b.setNS = append(b.setNS, float64(time.Since(t0)))
		case kvproto.OpCas:
			r.status, r.err = b.cl.Cas(r.keys[0], 0, r.exptime, r.casid, r.value)
		}
	}
	return nil
}
