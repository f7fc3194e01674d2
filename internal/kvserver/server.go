// Package kvserver is the hardened serving core behind cmd/adaptcached:
// an adaptivekv cache exposed over the kvproto text protocol with the
// fault envelope the paper's worst-case guarantee deserves on the network
// side. The policy layer promises graceful degradation under adversarial
// workloads; this layer promises graceful degradation under adversarial
// infrastructure:
//
//   - the accept loop retries transient failures (EMFILE, ECONNABORTED,
//     injected faults) with capped backoff and only exits when the
//     listener closes;
//   - past MaxConns concurrent connections, new arrivals are shed with
//     "SERVER_ERROR busy" instead of queuing unboundedly;
//   - a panic in one connection handler is recovered, counted, and ends
//     only that connection — never the process;
//   - values larger than MaxItemSize are refused at admission with
//     "SERVER_ERROR object too large" on a still-healthy stream;
//   - shutdown drains connections and leaks no goroutines.
//
// Every network write — explicit flushes, bufio auto-flushes, and
// vectored writes alike — goes through a deadline-armed conn wrapper, so
// a reply larger than the write buffer cannot wedge its handler on a
// stalled reader.
//
// The serving loop is throughput-shaped for pipelining clients: runs of
// consecutive get requests (including multi-key gets) are parsed ahead
// while input is buffered, dispatched through adaptivekv.GetBatch with
// one lock acquisition per shard per run, and answered in exact request
// order. Runs of consecutive sets are parsed ahead the same way and
// reach the backend as one SetBatch — a node stores them in order, the
// router sends each owner its share as one pipelined round trip — and
// each set is answered in its own place. A queued set's key and value
// are copied into a per-connection arena only when the loop parses
// ahead past it, so a lone set copies nothing; an oversize set ends the
// run and is refused after the queued sets' replies. Values at or above
// the reply buffer size skip the buffer copy entirely: the VALUE header
// is assembled into per-connection scratch and header+payload+terminator
// go out as one vectored write (net.Buffers → writev on TCP).
//
// The loop serves from a Backend: the node's own cache (New), or any
// other store behind the same interface — kvcluster's Router is this
// loop over a Cluster (NewWithBackend). Both tiers therefore share one
// request loop, one instrument set and one degrade shape.
//
// Robustness counters (conns_rejected, panics_recovered, accept_retries,
// client_errors) are exposed via Counters, the stats command, and
// ExpvarMap; a zero-allocation-on-record metrics registry (per-op latency
// histograms, byte/connection counters, cache collectors — see
// metrics.go) serves Prometheus text via MetricsHandler; Healthz serves
// 200 while accepting and 503 while draining.
package kvserver

import (
	"bufio"
	"errors"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"repro/adaptivekv"
	"repro/internal/kvproto"
	"repro/internal/metrics"
)

// Value is one stored object: the client's opaque flags word plus bytes.
type Value struct {
	Flags uint32
	Data  []byte
}

// Config assembles a Server. The zero value serves an adaptivekv default
// cache with no timeouts, no connection limit, and the protocol's value
// cap as the admission bound.
type Config struct {
	Cache adaptivekv.Config

	// ReadTimeout is armed before each request is parsed and covers all
	// of that request's reads, so it bounds both the idle wait for a
	// request and a client dribbling one (0 = none).
	ReadTimeout time.Duration
	// WriteTimeout is armed before every network write — explicit
	// flushes and bufio auto-flushes alike (0 = none).
	WriteTimeout time.Duration

	// MaxConns bounds concurrent connections; arrivals beyond it are
	// shed with "SERVER_ERROR busy" and closed. 0 = unlimited.
	MaxConns int

	// MaxItemSize bounds accepted value sizes (admission control below
	// the protocol's hard kvproto.MaxValueBytes cap). 0 = protocol cap.
	MaxItemSize int

	// FaultHook, when non-nil, runs before each request is dispatched.
	// It exists for fault injection — a hook that panics exercises the
	// per-connection panic isolation — and must not retain req.
	FaultHook func(req *kvproto.Request)

	// Logf receives operational messages (recovered panics, accept
	// retries). nil discards them.
	Logf func(format string, args ...any)
}

// Counters are the robustness counters, snapshotted by Counters().
type Counters struct {
	ConnsRejected     uint64 // connections shed with SERVER_ERROR busy
	PanicsRecovered   uint64 // handler panics isolated to their connection
	AcceptRetries     uint64 // transient accept errors retried
	ClientErrors      uint64 // recoverable protocol violations reported
	ShedWriteFailures uint64 // shed replies that never reached the client
	UnackedReplies    uint64 // ambiguous backend writes answered SERVER_ERROR unacked
}

// Server runs the request loop over a Backend and delegates connection
// lifecycle (accept retry, shedding, panic isolation, drain) to its
// core.
type Server struct {
	cfg     Config
	backend Backend
	cache   *adaptivekv.Cache[string, Value] // nil when serving another Backend

	core *core

	m           *serverMetrics
	shardLabels []string

	// startNanos is stamped when Serve first runs (not at New), so
	// uptime_seconds measures serving time. 0 = not yet serving.
	startNanos atomic.Int64
}

// New builds a Server over a fresh local cache; Serve starts it.
func New(cfg Config) *Server {
	s := newServer(cfg, metrics.NewRegistry(), "kv")
	s.cache = adaptivekv.New[string, Value](cfg.Cache)
	s.backend = cacheBackend{s}
	s.shardLabels = shardLabelSet(s.cache.Shards())
	s.m.reg.Collect(s.collectRuntime)
	return s
}

// NewWithBackend builds a Server whose request loop serves from b
// instead of a local cache; cfg.Cache is unused. The loop's instruments
// register in reg as families named prefix_... (a node's are kv_...).
func NewWithBackend(cfg Config, b Backend, reg *metrics.Registry, prefix string) *Server {
	s := newServer(cfg, reg, prefix)
	s.backend = b
	return s
}

func newServer(cfg Config, reg *metrics.Registry, prefix string) *Server {
	s := &Server{cfg: cfg, m: newServerMetrics(reg, prefix)}
	s.core = newCore(cfg.MaxConns, cfg.Logf, s.m, s.handle)
	return s
}

// uptime returns time spent serving (zero before Serve starts).
func (s *Server) uptime() time.Duration {
	ns := s.startNanos.Load()
	if ns == 0 {
		return 0
	}
	return time.Since(time.Unix(0, ns))
}

// Cache exposes the underlying adaptive cache (stats, shape); nil for a
// Server built with NewWithBackend.
func (s *Server) Cache() *adaptivekv.Cache[string, Value] { return s.cache }

// Counters snapshots the robustness counters.
func (s *Server) Counters() Counters {
	return Counters{
		ConnsRejected:     s.m.connsRejected.Load(),
		PanicsRecovered:   s.m.panicsRecovered.Load(),
		AcceptRetries:     s.m.acceptRetries.Load(),
		ClientErrors:      s.m.clientErrors.Load(),
		ShedWriteFailures: s.m.shedWriteFailures.Load(),
		UnackedReplies:    s.m.unacked.Load(),
	}
}

// Flushes reports how many flush_all commands this server has applied —
// chaos drills use it to prove a reintegrated node was actually flushed
// before serving.
func (s *Server) Flushes() uint64 { return s.m.flushes.Load() }

// SetsRejected reports how many stores (set and cas) were refused at
// admission for exceeding MaxItemSize — ops that never reached the cache
// and recorded no service latency.
func (s *Server) SetsRejected() uint64 { return s.m.setsRejected.Load() }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.core.Draining() }

// Serve accepts connections until the listener closes; see core.Serve
// for the accept-retry and shedding contract.
func (s *Server) Serve(ln net.Listener) {
	s.startNanos.CompareAndSwap(0, time.Now().UnixNano())
	s.core.Serve(ln)
}

// Shutdown stops accepting, flips health to draining, gives in-flight
// requests the grace period, then force-closes whatever remains. After it
// returns, every connection goroutine has exited — including the cache's
// TTL sweeper, stopped once the last request is done with the cache.
func (s *Server) Shutdown(ln net.Listener, grace time.Duration) {
	s.core.Shutdown(ln, grace)
	if s.cache != nil {
		s.cache.Close()
	}
}

// Wait blocks until every connection goroutine has exited (Serve callers
// that shut down via signal handlers use it before reading final stats).
func (s *Server) Wait() { s.core.Wait() }

// connIO routes the handler's I/O through the raw connection with two
// jobs: arm the write deadline before EVERY network write, and meter
// bytes in both directions. Routing the bufio.Writer through Write (not
// the bare conn) is the fix for a real wedge: a reply larger than the
// 4096-byte write buffer auto-flushes mid-WriteValue, and before this
// wrapper that auto-flush carried no deadline — a slow-loris reader
// fetching a large value parked the handler goroutine on conn.Write
// forever, immune to WriteTimeout.
type connIO struct {
	conn net.Conn
	s    *Server
}

func (c *connIO) Read(p []byte) (int, error) {
	n, err := c.conn.Read(p)
	c.s.m.bytesIn.Add(uint64(n))
	return n, err
}

func (c *connIO) Write(p []byte) (int, error) {
	if t := c.s.cfg.WriteTimeout; t > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(t)); err != nil {
			return 0, err
		}
	}
	// Count the write before the syscall: a client can read the whole
	// reply the moment it lands, and must then see the counter moved.
	c.s.m.netWrites.Inc()
	n, err := c.conn.Write(p)
	c.s.m.bytesOut.Add(uint64(n))
	return n, err
}

// WriteBuffers ships a vectored reply (writev on TCP) under the same
// deadline arming and byte metering as Write. bufs is consumed.
func (c *connIO) WriteBuffers(bufs *net.Buffers) error {
	if t := c.s.cfg.WriteTimeout; t > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(t)); err != nil {
			return err
		}
	}
	c.s.m.netWrites.Inc()
	c.s.m.vectoredWrites.Inc()
	n, err := bufs.WriteTo(c.conn)
	c.s.m.bytesOut.Add(uint64(n))
	return err
}

// maxRunKeys caps how many keys one batched get dispatch (four
// shard-group chunks), or how many sets one set run, may carry; past it
// the run executes and a fresh one starts, bounding reply latency and
// scratch growth under hostile pipelining.
const maxRunKeys = 256

// vectorMin is the value size at which replies switch from the bufio
// copy path to a vectored write. At or above the reply-buffer size the
// copy is pure overhead: the buffer would auto-flush mid-value anyway.
const vectorMin = 4096

// getRun accumulates a consecutive run of pipelined get (or gets)
// requests for one batched dispatch. Key bytes are copied out of the
// parser's buffers (parse-ahead invalidates them), one string per key;
// the slices themselves persist for the connection's lifetime.
type getRun struct {
	cas    bool // a gets run: replies carry cas uniques
	keys   []string
	counts []int // keys per queued request, in arrival order
	vals   []Value
	casids []uint64
	oks    []bool
	errs   []error
	hdr    []byte      // scratch for vectored VALUE headers
	iov    net.Buffers // reused 3-element vector: header, payload, CRLF
}

func (b *getRun) add(keys [][]byte) {
	for _, k := range keys {
		b.keys = append(b.keys, string(k))
	}
	b.counts = append(b.counts, len(keys))
}

func (b *getRun) pending() bool { return len(b.counts) > 0 }

// maxRunBytes caps the key and value bytes a set run copies while the
// loop parses ahead. A set that would overflow it ends the run and is
// passed straight from the parser, so the arena stays small however
// large the values a client pipelines.
const maxRunBytes = 64 << 10

// setRun accumulates a consecutive run of pipelined sets for one
// Backend.SetBatch. The parser reuses its buffers on every request, so
// a queued set's key and value are copied into arena only when the loop
// parses ahead past it; the run's last set is passed straight from the
// parser, so a run of one copies nothing. The slices persist for the
// connection's lifetime, so steady-state runs don't allocate.
type setRun struct {
	sets  []kvproto.SetReq
	errs  []error
	arena []byte
}

// add queues req, still aliasing the parser's buffers.
func (r *setRun) add(req *kvproto.Request) {
	r.sets = append(r.sets, kvproto.SetReq{Key: req.Key, Value: req.Value, Flags: req.Flags, Exptime: req.Exptime})
}

// own moves the last queued set's key and value into the arena, before
// the parser reuses its buffers. Earlier sets keep pointing into the old
// array when an append moves the arena.
func (r *setRun) own() {
	st := &r.sets[len(r.sets)-1]
	off := len(r.arena)
	r.arena = append(r.arena, st.Key...)
	r.arena = append(r.arena, st.Value...)
	mid, end := off+len(st.Key), len(r.arena)
	st.Key = r.arena[off:mid:mid]
	st.Value = r.arena[mid:end:end]
}

// room reports whether the loop may parse ahead past the last queued set.
func (r *setRun) room() bool {
	st := &r.sets[len(r.sets)-1]
	return len(r.sets) < maxRunKeys && len(r.arena)+len(st.Key)+len(st.Value) <= maxRunBytes
}

func (r *setRun) pending() bool { return len(r.sets) > 0 }

// execSets stores the queued run in one Backend.SetBatch — on a node,
// each set in order into the cache; on the router, one scatter across
// the owners — then answers each set in request order: STORED, or the
// SERVER_ERROR line of its own failure. Latency is recorded as one
// sample per set at the run's mean, like a get run.
func (s *Server) execSets(r *setRun, w *bufio.Writer, opsInFlush *int) {
	start := time.Now()
	n := len(r.sets)
	if cap(r.errs) < n {
		r.errs = make([]error, max(n, cap(r.sets)))
	}
	errs := r.errs[:n]
	s.backend.SetBatch(r.sets, errs) // every set's outcome lands in errs
	for _, err := range errs {
		if err != nil {
			kvproto.WriteServerError(w, s.failureMsg(err))
		} else {
			kvproto.WriteStored(w)
		}
	}
	*opsInFlush += n
	s.m.opLat[opSetIdx].RecordN(int64(time.Since(start))/int64(n), n)
	r.sets = r.sets[:0]
	r.arena = r.arena[:0]
}

// execPending answers whichever run is queued (at most one is: starting
// either kind executes the other first). Returns false when the
// connection is unusable.
func (s *Server) execPending(run *getRun, sets *setRun, w *bufio.Writer, cio *connIO, opsInFlush *int) bool {
	if sets.pending() {
		s.execSets(sets, w, opsInFlush)
	}
	return !run.pending() || s.execRun(run, w, cio, opsInFlush)
}

// execRun resolves the queued run in one Backend.GetBatch — on a node,
// gets grouped by shard with one lock acquisition per shard per chunk;
// on the router, one scatter across the owners — then emits replies in
// exact request order. Each request ends on its own terminator: END, or
// SERVER_ERROR after its surviving hits when one of its keys got no
// answer. Latency is recorded as one sample per key at the run's mean,
// so histogram counts stay equal to the cache's own per-key op counters.
// Returns false when the connection is unusable.
func (s *Server) execRun(b *getRun, w *bufio.Writer, cio *connIO, opsInFlush *int) bool {
	start := time.Now()
	n := len(b.keys)
	// A run can overshoot maxRunKeys by one multiget's worth of keys
	// (the cap is checked before queueing, not after), so size to n.
	if cap(b.vals) < n {
		c := max(maxRunKeys+kvproto.MaxGetKeys, n)
		b.vals = make([]Value, c)
		b.oks = make([]bool, c)
		b.errs = make([]error, c)
	}
	var casids []uint64
	if b.cas {
		if cap(b.casids) < n {
			b.casids = make([]uint64, cap(b.vals))
		}
		casids = b.casids[:n]
	}
	failed := s.backend.GetBatch(b.keys, b.vals[:n], casids, b.oks[:n], b.errs[:n]) != nil
	ok := true
	idx := 0
outer:
	for _, cnt := range b.counts {
		var err error
		for j := 0; j < cnt; j++ {
			if b.oks[idx] && !s.writeValue(w, cio, b, idx) {
				ok = false
				break outer
			}
			if failed && err == nil {
				err = b.errs[idx]
			}
			idx++
		}
		if err != nil {
			kvproto.WriteServerError(w, s.failureMsg(err))
		} else {
			kvproto.WriteEnd(w)
		}
		*opsInFlush++
	}
	h := s.m.opLat[opGetIdx]
	if b.cas {
		h = s.m.opLat[opGetsIdx]
	}
	h.RecordN(int64(time.Since(start))/int64(n), n)
	b.keys = b.keys[:0]
	b.counts = b.counts[:0]
	return ok
}

// writeValue emits the run's VALUE block i, with its cas unique in a
// gets run. Small values ride the reply buffer; large ones flush it
// first (replies stay ordered) and go out as a single vectored write of
// header+payload+terminator, skipping the per-value copy. Returns false
// on a failed vectored write; bufio write errors are sticky and surface
// at the next Flush.
func (s *Server) writeValue(w *bufio.Writer, cio *connIO, b *getRun, i int) bool {
	key, v := b.keys[i], b.vals[i]
	if len(v.Data) < vectorMin {
		if b.cas {
			kvproto.WriteValueCasString(w, key, v.Flags, b.casids[i], v.Data)
		} else {
			kvproto.WriteValueString(w, key, v.Flags, v.Data)
		}
		return true
	}
	if w.Flush() != nil {
		return false
	}
	if b.cas {
		b.hdr = kvproto.AppendValueCasHeader(b.hdr[:0], key, v.Flags, len(v.Data), b.casids[i])
	} else {
		b.hdr = kvproto.AppendValueHeader(b.hdr[:0], key, v.Flags, len(v.Data))
	}
	b.iov = append(b.iov[:0], b.hdr, v.Data, kvproto.CRLF)
	bufs := b.iov
	return cio.WriteBuffers(&bufs) == nil
}

// failureMsg maps a backend error onto its SERVER_ERROR line. The lines
// are fixed so a degraded reply is byte-identical every time. An
// ambiguous write is counted: chaos gates reconcile the tally against
// the unacked errors their clients saw.
func (s *Server) failureMsg(err error) string {
	var down interface{ NodeDown() bool }
	switch {
	case errors.As(err, &down) && down.NodeDown():
		return "node down"
	case errors.Is(err, kvproto.ErrUnacked):
		s.m.unacked.Inc()
		return "unacked"
	default:
		return "backend failure"
	}
}

// handle runs one connection's request loop under the core's isolation
// contract: closing, bookkeeping, and panic recovery belong to core.run,
// so a panic here — a handler bug, a hostile request, an injected fault
// — degrades one client instead of all.
func (s *Server) handle(conn net.Conn) {
	maxItem := s.cfg.MaxItemSize
	if maxItem <= 0 {
		maxItem = kvproto.MaxValueBytes
	}

	cio := &connIO{conn: conn, s: s}
	rd := kvproto.NewReader(cio)
	w := bufio.NewWriterSize(cio, 4096)
	run := &getRun{}
	sets := &setRun{}
	opsInFlush := 0
	var req kvproto.Request
	var ce *kvproto.ClientError
	for {
		if s.cfg.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		switch err := rd.Next(&req); {
		case err == nil:
		case errors.As(err, &ce):
			// Answer any queued run first so error replies keep their
			// place in the request order.
			if !s.execPending(run, sets, w, cio, &opsInFlush) {
				return
			}
			s.m.clientErrors.Inc()
			kvproto.WriteClientError(w, ce.Msg)
			opsInFlush++
			if w.Flush() != nil {
				return
			}
			s.m.batchedOps.RecordNS(int64(opsInFlush))
			opsInFlush = 0
			continue
		default:
			// Clean close, timeout, or corrupt stream. A pipelining
			// client may have queued requests then closed its write
			// side: apply and answer them best-effort before dropping
			// the connection (a queued set was fully parsed, so it is
			// applied, as it would have been outside a run).
			if s.execPending(run, sets, w, cio, &opsInFlush) {
				w.Flush()
			}
			return
		}

		if s.cfg.FaultHook != nil {
			s.cfg.FaultHook(&req)
		}

		switch {
		case req.Op == kvproto.OpGet || req.Op == kvproto.OpGets:
			// A run holds one kind of request: get and gets replies
			// differ in shape.
			cas := req.Op == kvproto.OpGets
			if sets.pending() {
				s.execSets(sets, w, &opsInFlush)
			}
			if run.pending() && run.cas != cas && !s.execRun(run, w, cio, &opsInFlush) {
				return
			}
			run.cas = cas
			run.add(req.Keys)
			// Parse ahead: while the burst has more requests already
			// buffered and the run has room, keep queueing — consecutive
			// gets collapse into one batched dispatch.
			if rd.Buffered() > 0 && len(run.keys) < maxRunKeys {
				continue
			}
			if !s.execRun(run, w, cio, &opsInFlush) {
				return
			}
		case req.Op == kvproto.OpSet && len(req.Value) <= maxItem:
			// Consecutive sets collapse into one Backend.SetBatch the same
			// way; an oversize set ends the run below and is refused in
			// its own place, after the queued sets' replies.
			if run.pending() && !s.execRun(run, w, cio, &opsInFlush) {
				return
			}
			sets.add(&req)
			if rd.Buffered() > 0 && sets.room() {
				sets.own()
				continue
			}
			s.execSets(sets, w, &opsInFlush)
		default:
			// Any other op ends the run; replies stay in request order.
			if !s.execPending(run, sets, w, cio, &opsInFlush) {
				return
			}
			opStart := time.Now()
			// rejected marks an op refused at admission: an oversize store
			// (set or cas; no other request carries a value). It writes an
			// error reply but never touches the backend, so it must not
			// record service latency or count as a replying op — the per-op
			// histogram counts stay equal to the engine's op counts (the
			// invariant the chaos harness asserts). Rejects are tallied in
			// kv_sets_rejected_total instead.
			rejected := len(req.Value) > maxItem
			var err error // a backend failure, answered SERVER_ERROR
			switch op := req.Op; {
			case rejected:
				kvproto.WriteServerError(w, "object too large")
				s.m.setsRejected.Inc()
			case op == kvproto.OpCas:
				var st kvproto.CasStatus
				switch st, err = s.backend.Cas(req.Key, req.Flags, req.Exptime, req.Cas, req.Value); {
				case err != nil:
				case st == kvproto.CasStored:
					kvproto.WriteStored(w)
				case st == kvproto.CasExists:
					kvproto.WriteExists(w)
				default:
					kvproto.WriteNotFound(w)
				}
			case op == kvproto.OpDelete:
				var found bool
				switch found, err = s.backend.Delete(req.Key); {
				case err != nil:
				case found:
					kvproto.WriteDeleted(w)
				default:
					kvproto.WriteNotFound(w)
				}
			case op == kvproto.OpStats:
				kvproto.WriteStat(w, "uptime_seconds", uint64(s.uptime().Seconds()))
				s.backend.WriteStats(w)
				kvproto.WriteEnd(w)
			case op == kvproto.OpNoop:
				kvproto.WriteNoop(w)
			case op == kvproto.OpFlushAll:
				if err = s.backend.FlushAll(); err == nil {
					s.m.flushes.Inc()
					kvproto.WriteOk(w)
				}
			case op == kvproto.OpQuit:
				w.Flush()
				return
			default:
				kvproto.WriteError(w)
			}
			if err != nil {
				kvproto.WriteServerError(w, s.failureMsg(err))
			}
			if !rejected {
				opsInFlush++
				if i := opIndex(req.Op); i >= 0 {
					s.m.opLat[i].RecordNS(int64(time.Since(opStart)))
				}
			}
		}
		// A pipelining client has more requests already buffered; batch the
		// replies and flush once the input drains (or the buffer fills).
		if rd.Buffered() > 0 && w.Available() > 512 {
			continue
		}
		if w.Flush() != nil {
			return
		}
		if opsInFlush > 0 {
			s.m.batchedOps.RecordNS(int64(opsInFlush))
			opsInFlush = 0
		}
	}
}

// Healthz is the health endpoint for the -http mux: 200 while accepting,
// 503 once draining begins, so load balancers stop routing before the
// listener disappears.
func (s *Server) Healthz(w http.ResponseWriter, _ *http.Request) {
	if s.core.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// ExpvarMap builds the expvar snapshot: aggregate, robustness counters,
// and per-shard counters. Publish it under expvar.Func.
func (s *Server) ExpvarMap() interface{} {
	type shardVars struct {
		Gets, GetHits, Stores, Deletes uint64
		Evictions, PolicySwitches      uint64
		Winner                         string
	}
	cfg := s.cache.Config()
	shards := make([]shardVars, s.cache.Shards())
	for i := range shards {
		st := s.cache.ShardStats(i)
		sv := shardVars{
			Gets: st.Gets, GetHits: st.GetHits, Stores: st.Stores,
			Deletes: st.Deletes, Evictions: st.Evictions,
			PolicySwitches: st.PolicySwitches,
		}
		if w := s.cache.Winner(i); w >= 0 {
			sv.Winner = cfg.Components[w]
		}
		shards[i] = sv
	}
	agg := s.cache.Stats()
	ct := s.Counters()
	return map[string]interface{}{
		"mode":             string(cfg.Mode),
		"components":       cfg.Components,
		"capacity":         s.cache.Capacity(),
		"items":            s.cache.Len(),
		"aggregate":        agg,
		"hit_ratio":        agg.HitRatio(),
		"shards":           shards,
		"draining":         s.core.Draining(),
		"conns_rejected":   ct.ConnsRejected,
		"panics_recovered": ct.PanicsRecovered,
		"accept_retries":   ct.AcceptRetries,
		"client_errors":    ct.ClientErrors,
	}
}
