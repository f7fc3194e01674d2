package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/adaptivekv"
	"repro/internal/kvproto"
	"repro/internal/kvserver"
)

// The ladder replays one session's requests through one layer per rung —
// engine, cache, protocol, server over a pipe, server over loopback,
// Cluster API, router over loopback — so the cost each layer adds is the
// difference between adjacent rungs. Every rung starts from a fresh
// session with the run's seed, so all rungs see the same request stream
// apart from the sets that follow misses.

// spanEvery samples one request in spanEvery for a span.
const spanEvery = 64

// span is one timed call into a layer, made from the benchmark's own
// code. Spans of one request share Req; spans are flat (Parent 0) until
// the program records nested spans itself.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in a preallocated slice; spans past its capacity
// are counted and dropped.
type tracer struct {
	base  time.Time
	spans []span
	n     atomic.Uint64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

// record keeps one span; a nil tracer records nothing.
func (t *tracer) record(name string, req uint64, start, end time.Time) {
	if t == nil {
		return
	}
	i := t.n.Add(1) - 1
	if i >= uint64(len(t.spans)) {
		return
	}
	t.spans[i] = span{ID: i + 1, Req: req, Name: name,
		Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds()}
}

func (t *tracer) dropped() uint64 { return t.n.Load() - uint64(t.kept()) }

func (t *tracer) kept() int { return int(min(t.n.Load(), uint64(len(t.spans)))) }

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(t.spans[:t.kept()]); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rung replays one session through one backend.
type rung struct {
	name string
	be   backend
	tr   *tracer
	// split executes the workload stream one request at a time and times
	// each into rtt (ns); splitPreload does the same for the preload,
	// untimed — a pipe cannot carry a pipelined batch.
	split, splitPreload bool
	rtt                 []float64
}

func (g *rung) exec(s session, b []*request, split, timed bool, req *uint64) error {
	if !split {
		t0 := time.Now()
		if err := g.be.do(b, s); err != nil {
			return err
		}
		// The batch's span carries the first sampled request in it.
		if sampled := (*req + spanEvery - 1) / spanEvery * spanEvery; timed && sampled < *req+uint64(len(b)) {
			g.tr.record(g.name, sampled, t0, time.Now())
		}
		*req += uint64(len(b))
		s.done(b)
		return nil
	}
	for _, r := range b {
		t0 := time.Now()
		if err := g.be.do([]*request{r}, s); err != nil {
			return err
		}
		t1 := time.Now()
		if timed {
			g.rtt = append(g.rtt, float64(t1.Sub(t0)))
			if *req%spanEvery == 0 {
				g.tr.record(g.name, *req, t0, t1)
			}
			*req++
		}
	}
	s.done(b)
	return nil
}

// run preloads, then replays workload batches until limit operations
// have run — or, for a split rung, until limit requests have been timed.
// half holds the counts when half of them had.
func (g *rung) run(s session, limit uint64) (half, end counts, err error) {
	var req uint64
	for b := s.preload(); b != nil; b = s.preload() {
		if err := g.exec(s, b, g.splitPreload, false, &req); err != nil {
			return half, *s.counts(), err
		}
	}
	base := s.counts().ops
	progress := func() uint64 {
		if g.split {
			return uint64(len(g.rtt))
		}
		return s.counts().ops - base
	}
	half = *s.counts()
	for done := progress(); done < limit; done = progress() {
		if done < limit/2 {
			half = *s.counts()
		}
		if err := g.exec(s, s.next(), g.split, true, &req); err != nil {
			return half, *s.counts(), err
		}
	}
	return half, *s.counts(), nil
}

// replaySession is the ladder's single session: one connection owning
// every key, with long TTLs.
func replaySession(w *workload, p plan, seed uint64, evictions func() uint64) session {
	return w.newSession(sessionConfig{seed: seed, conns: 1, shift: p.shift, replay: true,
		evictions: evictions, drawn: new(atomic.Uint64)})
}

// inProcessRungs runs the engine, cache and protocol rungs, whose counts
// are exact and repeat for a seed.
func inProcessRungs(w *workload, p plan, seed uint64, tr *tracer, m map[string]float64) (counts, error) {
	var total counts
	limit := scaled(w.ladder, p.shift)

	eb := newEngineBackend(w.cache)
	g := &rung{name: "core", be: eb, tr: tr}
	_, end, err := g.run(replaySession(w, p, seed, eb.evictions), limit)
	total.add(end)
	if err != nil {
		return total, err
	}
	m["core.lookup_ns.p50"] = quantile(eb.lookupNS, 0.50)
	m["core.lookup_ns.p99"] = quantile(eb.lookupNS, 0.99)
	m["core.store_ns.p50"] = quantile(eb.storeNS, 0.50)
	m["core.store_ns.p99"] = quantile(eb.storeNS, 0.99)
	m["core.policy_switches_per_mop"] = float64(eb.switches()) / float64(max(len(eb.lookupNS)+len(eb.storeNS), 1)) * 1e6

	// The same replay against an SBAR cache and both of its components
	// alone, serialized so the counts are exact. The SBAR replay also
	// drives the protocol rung.
	misses := map[string]uint64{}
	for _, mode := range []string{"sbar", "lru", "lfu"} {
		cc := w.cache
		cc.StrictOrder = true
		if mode != "sbar" {
			cc.Mode, cc.Components = adaptivekv.ModeSingle, []string{strings.ToUpper(mode)}
		}
		cb := &cacheBackend{c: adaptivekv.New[string, kvserver.Value](cc)}
		var be backend = cb
		var pr *protoRung
		if mode == "sbar" {
			pr = newProtoRung(cb)
			be = pr
		}
		g := &rung{name: "adaptivekv." + mode, be: be, tr: tr}
		half, end, err := g.run(replaySession(w, p, seed, cb.evictions), limit)
		cb.c.Close()
		total.add(end)
		if err != nil {
			return total, err
		}
		c := end.sub(half)
		m["adaptivekv.hit_ratio."+mode] = float64(c.hits) / float64(max(c.gets, 1))
		misses[mode] = c.gets - c.hits
		if pr != nil {
			m["adaptivekv.getbatch_ns_per_key.p50"] = quantile(cb.getNS, 0.50)
			m["adaptivekv.getbatch_ns_per_key.p99"] = quantile(cb.getNS, 0.99)
			m["adaptivekv.set_ns.p50"] = quantile(cb.setNS, 0.50)
			m["adaptivekv.set_ns.p99"] = quantile(cb.setNS, 0.99)
			m["kvproto.parse_ns_per_req.p50"] = quantile(pr.parseNS, 0.50)
			m["kvproto.parse_ns_per_req.p99"] = quantile(pr.parseNS, 0.99)
			m["kvproto.reply_ns_per_key.p50"] = quantile(pr.replyNS, 0.50)
			m["kvproto.client_read_ns_per_key.p50"] = quantile(pr.readNS, 0.50)
			m["kvproto.wire_bytes_per_op"] = float64(pr.wire) / float64(max(end.ops, 1))
		}
	}
	m["adaptivekv.miss_ratio_vs_best"] = float64(misses["sbar"]) / float64(max(min(misses["lru"], misses["lfu"]), 1))
	return total, nil
}

// protoRung wraps the SBAR cache rung with the protocol layer: each
// request is encoded with kvproto.Client and parsed back with
// kvproto.Reader, and each reply is written with kvproto's Write helpers
// and read back with kvproto.Client — every step timed on its own.
type protoRung struct {
	inner *cacheBackend

	encoded bytes.Buffer
	enc     *kvproto.Client // writes into encoded
	reqSrc  bytes.Reader
	rd      *kvproto.Reader
	parsed  kvproto.Request

	reply    *bufio.Writer // onto io.Discard, timed
	replyBuf bytes.Buffer
	replyW   *bufio.Writer // into replyBuf, untimed
	replySrc bytes.Reader
	cli      *kvproto.Client // reads replySrc

	parseNS, replyNS, readNS []float64
	wire                     uint64
}

// byteConn is a connection whose reads come from one reader and whose
// writes go to one writer.
type byteConn struct {
	io.Reader
	io.Writer
}

func (byteConn) Close() error { return nil }

func newProtoRung(inner *cacheBackend) *protoRung {
	p := &protoRung{inner: inner, reply: bufio.NewWriterSize(io.Discard, 4096)}
	p.enc = kvproto.NewClient(byteConn{Reader: bytes.NewReader(nil), Writer: &p.encoded})
	p.rd = kvproto.NewReader(&p.reqSrc)
	p.replyW = bufio.NewWriterSize(&p.replyBuf, 4096)
	p.cli = kvproto.NewClient(byteConn{Reader: &p.replySrc, Writer: io.Discard})
	return p
}

func (p *protoRung) do(batch []*request, s session) error {
	for _, r := range batch {
		p.encode(r)
		p.wire += uint64(p.encoded.Len())
		p.reqSrc.Reset(p.encoded.Bytes())
		t0 := time.Now()
		err := p.rd.Next(&p.parsed)
		p.parseNS = append(p.parseNS, float64(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	if err := p.inner.do(batch, s); err != nil {
		return err
	}
	for _, r := range batch {
		keys := float64(len(r.keys))
		t0 := time.Now()
		writeReply(p.reply, r)
		p.replyNS = append(p.replyNS, float64(time.Since(t0))/keys)

		p.replyBuf.Reset()
		writeReply(p.replyW, r)
		if err := p.replyW.Flush(); err != nil {
			return err
		}
		p.wire += uint64(p.replyBuf.Len())
		if r.op == kvproto.OpGets && len(r.keys) > 1 {
			continue // kvproto.Client reads single-key gets replies only
		}
		p.replySrc.Reset(p.replyBuf.Bytes())
		t0 = time.Now()
		err := readReply(p.cli, r)
		p.readNS = append(p.readNS, float64(time.Since(t0))/keys)
		if err != nil {
			return err
		}
	}
	return nil
}

// encode leaves r's request bytes in p.encoded.
func (p *protoRung) encode(r *request) {
	p.encoded.Reset()
	switch r.op {
	case kvproto.OpGet:
		if len(r.keys) == 1 {
			p.enc.SendGet(r.keys[0])
		} else {
			p.enc.SendMultiGet(r.keys)
		}
	case kvproto.OpGets:
		if len(r.keys) == 1 {
			p.enc.SendGets(r.keys[0])
		} else {
			p.encoded.WriteString("gets")
			for _, k := range r.keys {
				p.encoded.WriteByte(' ')
				p.encoded.Write(k)
			}
			p.encoded.WriteString("\r\n")
		}
	case kvproto.OpSet:
		p.enc.SendSet(r.keys[0], 0, r.exptime, r.value)
	case kvproto.OpCas:
		p.enc.SendCas(r.keys[0], 0, r.exptime, r.casid, r.value)
	}
	p.enc.Flush()
}

// writeReply writes the reply kvserver sends for r's outcome.
func writeReply(w *bufio.Writer, r *request) {
	switch r.op {
	case kvproto.OpGet, kvproto.OpGets:
		for i, k := range r.keys {
			if !r.hit[i] {
				continue
			}
			if r.op == kvproto.OpGet {
				kvproto.WriteValue(w, k, 0, r.vals[i])
			} else {
				kvproto.WriteValueCas(w, k, 0, r.casids[i], r.vals[i])
			}
		}
		kvproto.WriteEnd(w)
	case kvproto.OpSet:
		kvproto.WriteStored(w)
	case kvproto.OpCas:
		switch r.status {
		case kvproto.CasStored:
			kvproto.WriteStored(w)
		case kvproto.CasExists:
			kvproto.WriteExists(w)
		default:
			kvproto.WriteNotFound(w)
		}
	}
}

func readReply(c *kvproto.Client, r *request) error {
	var err error
	switch r.op {
	case kvproto.OpGet:
		if len(r.keys) == 1 {
			_, _, err = c.ReadGetReply()
		} else {
			err = c.ReadMultiGetReply(r.keys, nil)
		}
	case kvproto.OpGets:
		_, _, _, _, err = c.ReadGetsReply()
	case kvproto.OpSet:
		err = c.ReadSetReply()
	case kvproto.OpCas:
		_, err = c.ReadCasReply()
	}
	return err
}

// networkRungs runs the server and cluster rungs: kvserver over net.Pipe
// and over loopback TCP, the Cluster API over a fleet, and the router
// over loopback in front of the same fleet. Each replays p.netReqs
// requests one at a time after the session's preload.
func networkRungs(w *workload, p plan, seed uint64, tr *tracer, m map[string]float64) (counts, error) {
	var total counts
	netRun := func(name string, be backend, splitPreload bool, ev func() uint64) (*rung, counts, error) {
		g := &rung{name: name, be: be, tr: tr, split: true, splitPreload: splitPreload}
		_, end, err := g.run(replaySession(w, p, seed, ev), uint64(p.netReqs))
		return g, end, err
	}
	serverRun := func(name string, ln net.Listener, dial func() (net.Conn, error)) (*rung, error) {
		srv, stop := startServer(w.cache, ln)
		defer stop()
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		be := newProtoBackend(conn)
		defer be.close()
		g, c, err := netRun(name, be, name == "kvserver.pipe", evictionsOf([]*kvserver.Server{srv}))
		total.add(c)
		return g, err
	}

	pl := newPipeListener()
	pipe, err := serverRun("kvserver.pipe", pl, pl.dial)
	if err != nil {
		return total, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return total, err
	}
	tcp, err := serverRun("kvserver.tcp", ln, func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) })
	if err != nil {
		return total, err
	}
	m["kvserver.pipe_rtt_us.p50"] = quantile(pipe.rtt, 0.50) / 1e3
	m["kvserver.pipe_rtt_us.p99"] = quantile(pipe.rtt, 0.99) / 1e3
	m["kvserver.tcp_minus_pipe_us.p50"] = quantile(tcp.rtt, 0.50)/1e3 - m["kvserver.pipe_rtt_us.p50"]

	f, cl, err := startCluster(3, nodeCache)
	if err != nil {
		return total, err
	}
	defer f.Close()
	defer cl.Close()
	servers := fleetServers(f)
	cb := &clusterBackend{cl: cl}
	api, c, err := netRun("kvcluster.api", cb, true, evictionsOf(servers))
	total.add(c)
	if err != nil {
		return total, err
	}
	m["kvcluster.multiget_us.p50"] = quantile(cb.getNS, 0.50) / 1e3
	m["kvcluster.multiget_us.p99"] = quantile(cb.getNS, 0.99) / 1e3
	m["kvcluster.set_us.p50"] = quantile(cb.setNS, 0.50) / 1e3

	// The router rung starts from an empty fleet again, like the API rung.
	if err := cl.FlushAll(); err != nil {
		return total, err
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return total, err
	}
	defer serveRouter(cl, rln)()
	conn, err := net.Dial("tcp", rln.Addr().String())
	if err != nil {
		return total, err
	}
	be := newProtoBackend(conn)
	defer be.close()
	writes := func() uint64 {
		var n uint64
		for _, s := range servers {
			n += s.NetCounters().NetWrites
		}
		return n
	}
	w0, fo0 := writes(), cl.FailoverReads()
	routed, c, err := netRun("kvcluster.router", be, false, evictionsOf(servers))
	total.add(c)
	if err != nil {
		return total, err
	}
	ops := float64(max(c.ops, 1))
	m["kvcluster.router_self_us.p50"] = (quantile(routed.rtt, 0.50) - quantile(api.rtt, 0.50)) / 1e3
	m["kvcluster.backend_writes_per_key"] = float64(writes()-w0) / ops
	m["kvcluster.failover_reads_per_mop"] = float64(cl.FailoverReads()-fo0) / ops * 1e6
	return total, nil
}

// quantile returns the q-quantile of samples, whole-nanosecond clock
// readings, as the interpolated quantile of grouped data: a reading v
// stands for a time spread evenly over [v-0.5, v+0.5). Fast calls take
// only a few distinct readings, so a plain order statistic would land on
// the same tick run after run; the interpolation moves with the sample
// counts instead. samples is sorted in place; no samples read 0.
func quantile(samples []float64, q float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := q * float64(n)
	v := samples[min(int(rank), n-1)]
	lo, _ := slices.BinarySearch(samples, v)
	hi, _ := slices.BinarySearch(samples, math.Nextafter(v, math.Inf(1)))
	return v - 0.5 + (rank-float64(lo))/float64(hi-lo)
}
