package kvcluster

import (
	"bufio"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/kvproto"
	"repro/internal/kvserver"
)

// RouterConfig assembles a Router around a Cluster.
type RouterConfig struct {
	// ReadTimeout bounds each client request's reads: it is armed
	// before the request is parsed, as kvserver.Config.ReadTimeout is
	// (0 = none).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration // armed before every reply flush (0 = none)
	MaxConns     int           // client connection bound (0 = unlimited)

	Logf func(format string, args ...any)
}

// Router serves the kvproto text protocol in front of a Cluster: clients
// speak to it exactly as they would to one adaptcached node, and the
// router owns the fanout. It is kvserver's request loop over the Cluster
// as its Backend, so the proxy tier runs the cache tier's serving
// envelope (accept retry, MaxConns shedding, panic isolation,
// drain/force shutdown), get-run and set-run batching, reply-flush
// policy and per-op instruments, registered as kvrouter_... families in
// the cluster's registry.
//
// Failure semantics are explicit rather than silent: an operation whose
// owner node is down answers "SERVER_ERROR node down"; a get or gets
// that lost an owner delivers every surviving VALUE block in request
// order and then terminates with SERVER_ERROR instead of END (the
// stream stays parseable — clients classify it as a failed, retryable
// request, never as a short miss); an ambiguous write is forwarded as
// "SERVER_ERROR unacked" and never replayed.
type Router struct {
	srv *kvserver.Server
}

// NewRouter builds a Router over cl, registering its instruments in the
// cluster's registry.
func NewRouter(cl *Cluster, cfg RouterConfig) *Router {
	b := &clusterBackend{Cluster: cl}
	b.keyBufs.New = func() any { return new([][]byte) }
	b.srv = kvserver.NewWithBackend(kvserver.Config{
		ReadTimeout:  cfg.ReadTimeout,
		WriteTimeout: cfg.WriteTimeout,
		MaxConns:     cfg.MaxConns,
		Logf:         cfg.Logf,
	}, b, cl.Registry(), "kvrouter")
	return &Router{srv: b.srv}
}

// Serve accepts and serves client connections until ln closes.
func (r *Router) Serve(ln net.Listener) { r.srv.Serve(ln) }

// Shutdown drains like kvserver: stop accepting, grace period, force
// close. The Cluster is left running — the owner closes it after.
func (r *Router) Shutdown(ln net.Listener, grace time.Duration) { r.srv.Shutdown(ln, grace) }

// Wait blocks until every client connection handler has exited.
func (r *Router) Wait() { r.srv.Wait() }

// Draining reports whether Shutdown has begun.
func (r *Router) Draining() bool { return r.srv.Draining() }

// Healthz serves 200 while accepting, 503 while draining.
func (r *Router) Healthz(w http.ResponseWriter, req *http.Request) { r.srv.Healthz(w, req) }

// MetricsHandler serves the shared router+cluster registry as Prometheus
// text exposition.
func (r *Router) MetricsHandler() http.Handler { return r.srv.MetricsHandler() }

// UnackedReplies returns how many ambiguous writes the router has
// surfaced to clients as "SERVER_ERROR unacked" — the value behind
// kvrouter_unacked_replies_total, for gates that reconcile the tally
// against client-side observations.
func (r *Router) UnackedReplies() uint64 { return r.srv.Counters().UnackedReplies }

// clusterBackend serves kvserver's request loop from the Cluster.
// SetBatch, Cas, Delete and FlushAll are the Cluster's own.
type clusterBackend struct {
	*Cluster
	srv     *kvserver.Server // the loop over this backend, for stats
	keyBufs sync.Pool        // *[][]byte: a run's keys as bytes
}

// GetBatch answers a get or gets run with one scatter over the keys'
// owners. Hit values are copied into one arena per run, since the
// scatter's buffers are reused once it returns.
func (b *clusterBackend) GetBatch(keys []string, vals []kvserver.Value, casids []uint64, oks []bool, errs []error) error {
	kp := b.keyBufs.Get().(*[][]byte)
	defer b.keyBufs.Put(kp)
	for len(*kp) < len(keys) {
		*kp = append(*kp, nil)
	}
	kb := (*kp)[:len(keys)]
	for i, k := range keys {
		kb[i] = append(kb[i][:0], k...)
		oks[i], errs[i] = false, nil
	}
	var arena []byte
	return b.gather(kb, casids != nil, func(i int, flags uint32, casid uint64, val []byte) {
		off := len(arena)
		arena = append(arena, val...)
		vals[i] = kvserver.Value{Flags: flags, Data: arena[off:len(arena):len(arena)]}
		oks[i] = true
		if casids != nil {
			casids[i] = casid
		}
	}, func(i int, err error) { errs[i] = err })
}

// WriteStats answers the stats command with the router's view of the
// fleet: per-node health, routed/failed tallies, backend retry behavior.
func (b *clusterBackend) WriteStats(w *bufio.Writer) {
	cl := b.Cluster
	kvproto.WriteStat(w, "nodes", uint64(len(cl.pools)))
	ejected := 0
	for _, p := range cl.pools {
		if p.ejected.Load() {
			ejected++
		}
	}
	kvproto.WriteStat(w, "nodes_ejected", uint64(ejected))
	for i, p := range cl.pools {
		up := uint64(1)
		if p.ejected.Load() {
			up = 0
		}
		kvproto.WriteStat(w, "node_"+strconv.Itoa(i)+"_up", up)
	}
	for i, name := range ixNames {
		kvproto.WriteStat(w, "ops_routed_"+name, cl.m.routed[i].Load())
		kvproto.WriteStat(w, "ops_failed_"+name, cl.m.failed[i].Load())
	}
	kvproto.WriteStat(w, "replicas", uint64(cl.cfg.Replicas))
	kvproto.WriteStat(w, "failover_reads", cl.m.failoverReads.Load())
	kvproto.WriteStat(w, "replica_write_failures", cl.m.replicaWriteFailures.Load())
	kvproto.WriteStat(w, "replica_unacked", cl.m.replicaUnacked.Load())
	kvproto.WriteStat(w, "reintegration_flushes", cl.m.reintegrationFlushes.Load())
	kvproto.WriteStat(w, "backend_redials", cl.m.backend.Redials.Load())
	kvproto.WriteStat(w, "backend_retries", cl.m.backend.Retries.Load())
	kvproto.WriteStat(w, "backend_unacked", cl.m.backend.Unacked.Load())
	kvproto.WriteStat(w, "backend_exhausted", cl.m.backend.Exhausted.Load())
	ct := b.srv.Counters()
	kvproto.WriteStat(w, "unacked_replies", ct.UnackedReplies)
	kvproto.WriteStat(w, "client_errors", ct.ClientErrors)
}
