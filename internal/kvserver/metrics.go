package kvserver

// Metrics wiring: the server owns a metrics.Registry holding its own
// counters/gauges/histograms (recorded inline on the serving path at zero
// allocations) plus a collector that snapshots the adaptive cache at
// scrape time — one shard lock at a time, never all at once, and never
// walking sets (shard occupancy is maintained incrementally by
// adaptivekv). MetricsHandler serves the whole registry as Prometheus
// text exposition on the -http mux.

import (
	"fmt"
	"net/http"
	"time"

	"repro/adaptivekv"
	"repro/internal/kvproto"
	"repro/internal/metrics"
)

// opCount latency histograms cover the six replying ops.
const opCount = 6

// opNames index the latency histograms; opIndex maps protocol ops onto
// them (-1 for ops with no service time: quit, invalid). gets and cas
// were appended so the original indices hold.
var opNames = [opCount]string{"get", "set", "delete", "stats", "gets", "cas"}

// Histogram indices the serving path records into directly.
const (
	opGetIdx  = 0
	opSetIdx  = 1
	opGetsIdx = 4
)

func opIndex(op kvproto.Op) int {
	switch op {
	case kvproto.OpGet:
		return opGetIdx
	case kvproto.OpSet:
		return opSetIdx
	case kvproto.OpDelete:
		return 2
	case kvproto.OpStats:
		return 3
	case kvproto.OpGets:
		return opGetsIdx
	case kvproto.OpCas:
		return 5
	}
	return -1
}

// serverMetrics bundles every instrument the serving path records into.
// All fields are registered once at construction; recording is lock-free.
type serverMetrics struct {
	reg *metrics.Registry

	// Per-op service time: parse-to-serialized reply, excluding the
	// network write (slow clients must not pollute service histograms).
	// Get runs record one sample per key, and set runs one per set, at
	// the run's mean.
	opLat [opCount]*metrics.Histogram

	// batchedOps observes how many replying ops each explicit flush
	// coalesced — the pipelining win, 1 for strict request/reply clients.
	batchedOps *metrics.Histogram

	bytesIn        *metrics.Counter
	bytesOut       *metrics.Counter
	netWrites      *metrics.Counter
	vectoredWrites *metrics.Counter

	connsOpened *metrics.Counter
	connsClosed *metrics.Counter
	connsActive *metrics.Gauge

	connsRejected     *metrics.Counter
	shedWriteFailures *metrics.Counter
	panicsRecovered   *metrics.Counter
	acceptRetries     *metrics.Counter
	clientErrors      *metrics.Counter

	// unacked counts backend writes that may or may not have applied,
	// answered "SERVER_ERROR unacked" and never replayed; chaos gates
	// reconcile it against what clients saw. Only a remote Backend
	// produces them.
	unacked *metrics.Counter

	// setsRejected counts stores (set and cas alike) refused at admission
	// for exceeding MaxItemSize. Rejected stores never reach the cache,
	// record no service latency, and do not count as replying ops — they
	// live here and nowhere else, keeping the "histogram count == engine
	// op count" invariant exact.
	setsRejected *metrics.Counter

	flushes *metrics.Counter
}

// newServerMetrics registers the loop's instruments in reg under
// families named prefix_...: kv_ on a node, kvrouter_ on the router.
func newServerMetrics(reg *metrics.Registry, prefix string) *serverMetrics {
	m := &serverMetrics{reg: reg}
	for i, name := range opNames {
		m.opLat[i] = reg.Histogram(prefix+"_op_latency_seconds",
			`op="`+name+`"`, "per-op service time, parse to serialized reply")
	}
	m.batchedOps = reg.HistogramUnitless(prefix+"_batched_ops_per_flush", "",
		"replying ops coalesced into each explicit reply flush")
	m.bytesIn = reg.Counter(prefix+"_bytes_in_total", "", "bytes read from clients")
	m.bytesOut = reg.Counter(prefix+"_bytes_out_total", "", "bytes written to clients")
	m.netWrites = reg.Counter(prefix+"_net_writes_total", "", "network write syscalls (deadline-armed)")
	m.vectoredWrites = reg.Counter(prefix+"_vectored_writes_total", "", "large replies shipped via writev without buffer copies")
	m.connsOpened = reg.Counter(prefix+"_conns_opened_total", "", "connections accepted into service")
	m.connsClosed = reg.Counter(prefix+"_conns_closed_total", "", "connection handlers exited")
	m.connsActive = reg.Gauge(prefix+"_conns_active", "", "connections currently being served")
	m.connsRejected = reg.Counter(prefix+"_conns_rejected_total", "", "connections shed with SERVER_ERROR busy")
	m.shedWriteFailures = reg.Counter(prefix+"_shed_write_failures_total", "", "shed replies that failed to reach the client")
	m.panicsRecovered = reg.Counter(prefix+"_panics_recovered_total", "", "handler panics isolated to their connection")
	m.acceptRetries = reg.Counter(prefix+"_accept_retries_total", "", "transient accept errors retried")
	m.clientErrors = reg.Counter(prefix+"_client_errors_total", "", "recoverable protocol violations reported")
	m.unacked = reg.Counter(prefix+"_unacked_replies_total", "", "ambiguous backend writes answered SERVER_ERROR unacked (never replayed)")
	m.setsRejected = reg.Counter(prefix+"_sets_rejected_total", "", "stores (set/cas) refused at admission: object too large")
	m.flushes = reg.Counter(prefix+"_flushes_total", "", "flush_all commands applied (cache emptied)")
	return m
}

// collectRuntime is the scrape-time collector for state that lives in the
// cache (per-shard counters, occupancy, SBAR winners) or the clock
// (uptime). Each ShardStats/ShardOccupancy/Winner call takes exactly one
// shard lock; the scrape never holds two locks at once.
func (s *Server) collectRuntime(e *metrics.Expo) {
	var agg adaptivekv.Stats
	n := s.cache.Shards()
	shards := make([]adaptivekv.Stats, n)
	occ := make([]int, n)
	winners := make([]int, n)
	totalOcc := 0
	for i := 0; i < n; i++ {
		shards[i] = s.cache.ShardStats(i)
		occ[i] = s.cache.ShardOccupancy(i)
		winners[i] = s.cache.Winner(i)
		agg.Add(shards[i])
		totalOcc += occ[i]
	}

	e.Family("adaptivekv_ops_total", "counter", "cache operations by type")
	e.Sample("adaptivekv_ops_total", `op="get"`, float64(agg.Gets))
	e.Sample("adaptivekv_ops_total", `op="set"`, float64(agg.Stores))
	e.Sample("adaptivekv_ops_total", `op="delete"`, float64(agg.Deletes))
	e.Family("adaptivekv_hits_total", "counter", "cache hits by operation type")
	e.Sample("adaptivekv_hits_total", `op="get"`, float64(agg.GetHits))
	e.Sample("adaptivekv_hits_total", `op="set"`, float64(agg.StoreHits))
	e.Sample("adaptivekv_hits_total", `op="delete"`, float64(agg.DeleteHits))
	e.Family("kv_cas_hits_total", "counter", "cas operations that swapped (unique matched)")
	e.Sample("kv_cas_hits_total", "", float64(agg.CasStored))
	e.Family("kv_cas_conflicts_total", "counter", "cas operations refused EXISTS (unique mismatch)")
	e.Sample("kv_cas_conflicts_total", "", float64(agg.CasConflicts))
	e.Family("kv_cas_misses_total", "counter", "cas operations on absent or expired keys (NOT_FOUND)")
	e.Sample("kv_cas_misses_total", "", float64(agg.CasMisses))
	e.Family("adaptivekv_evictions_total", "counter", "capacity evictions decided by the policy")
	e.Sample("adaptivekv_evictions_total", "", float64(agg.Evictions))
	e.Family("adaptivekv_policy_switches_total", "counter", "SBAR global-winner changes")
	e.Sample("adaptivekv_policy_switches_total", "", float64(agg.PolicySwitches))
	e.Family("adaptivekv_hash_collisions_total", "counter", "tag hits on entries owned by a different key")
	e.Sample("adaptivekv_hash_collisions_total", "", float64(agg.HashCollisions))
	e.Family("adaptivekv_optimistic_get_fastpath_total", "counter", "optimistic gets that never waited on a lock")
	e.Sample("adaptivekv_optimistic_get_fastpath_total", "", float64(agg.OptimisticFastpath))
	e.Family("adaptivekv_optimistic_get_fallback_total", "counter", "optimistic gets that waited on their set read lock behind a writer")
	e.Sample("adaptivekv_optimistic_get_fallback_total", "", float64(agg.OptimisticFallback))
	e.Family("adaptivekv_pending_hits_dropped_total", "counter", "deferred access records dropped on pending-ring overflow")
	e.Sample("adaptivekv_pending_hits_dropped_total", "", float64(agg.PendingHitsDropped))
	e.Family("kv_expired_total", "counter", "entries vacated because their TTL deadline passed (lazy + swept)")
	e.Sample("kv_expired_total", "", float64(agg.Expired))
	e.Family("kv_ttl_sweep_removed_total", "counter", "expired entries reclaimed by the active sweeper")
	e.Sample("kv_ttl_sweep_removed_total", "", float64(agg.SweepRemoved))
	e.Family("kv_ttl_sweep_passes_total", "counter", "shard sweeps completed by the TTL sweeper")
	e.Sample("kv_ttl_sweep_passes_total", "", float64(s.cache.SweepPasses()))
	e.Family("adaptivekv_items", "gauge", "resident entries")
	e.Sample("adaptivekv_items", "", float64(totalOcc))
	e.Family("adaptivekv_capacity", "gauge", "maximum resident entries")
	e.Sample("adaptivekv_capacity", "", float64(s.cache.Capacity()))
	e.Family("adaptivekv_shard_items", "gauge", "resident entries per shard")
	for i := 0; i < n; i++ {
		e.Sample("adaptivekv_shard_items", s.shardLabels[i], float64(occ[i]))
	}
	e.Family("adaptivekv_shard_evictions_total", "counter", "capacity evictions per shard")
	for i := 0; i < n; i++ {
		e.Sample("adaptivekv_shard_evictions_total", s.shardLabels[i], float64(shards[i].Evictions))
	}
	e.Family("adaptivekv_shard_winner", "gauge", "SBAR winner component index per shard (-1 outside SBAR)")
	for i := 0; i < n; i++ {
		e.Sample("adaptivekv_shard_winner", s.shardLabels[i], float64(winners[i]))
	}
	e.Family("kv_uptime_seconds", "gauge", "seconds since Serve started (0 before)")
	e.Sample("kv_uptime_seconds", "", s.uptime().Seconds())
}

// shardLabelSet precomputes the `shard="i"` label strings so scrapes
// don't re-format them.
func shardLabelSet(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf(`shard="%d"`, i)
	}
	return labels
}

// MetricsHandler serves the server's registry as Prometheus text
// exposition; mount it at /metrics on the -http mux.
func (s *Server) MetricsHandler() http.Handler { return s.m.reg.Handler() }

// WriteMetrics writes the exposition to w (the handler's core, exposed
// for tests and in-process scrapes).
func (s *Server) WriteMetrics(w interface{ Write([]byte) (int, error) }) error {
	return s.m.reg.WritePrometheus(w)
}

// OpLatency is a point-in-time latency summary for one op, extracted
// from its histogram at the documented ≤3.125% relative error.
type OpLatency struct {
	Count              uint64
	P50, P95, P99, Max time.Duration
}

// OpLatency returns the summary for op ("get", "set", "delete", "stats",
// "gets", "cas"), or a zero summary for unknown ops.
func (s *Server) OpLatency(op string) OpLatency {
	for i, name := range opNames {
		if name == op {
			h := s.m.opLat[i]
			return OpLatency{
				Count: h.Count(),
				P50:   h.Quantile(0.50),
				P95:   h.Quantile(0.95),
				P99:   h.Quantile(0.99),
				Max:   h.Max(),
			}
		}
	}
	return OpLatency{}
}

// ConnsActive returns the live connection gauge — 0 after a clean
// Shutdown, and never negative.
func (s *Server) ConnsActive() int64 { return s.m.connsActive.Load() }

// NetCounters snapshots the network-side counters.
type NetCounters struct {
	BytesIn, BytesOut, NetWrites uint64
	VectoredWrites               uint64
	ConnsOpened, ConnsClosed     uint64
	ShedWriteFailures            uint64
}

// NetCounters snapshots the network-side counters.
func (s *Server) NetCounters() NetCounters {
	return NetCounters{
		BytesIn:           s.m.bytesIn.Load(),
		BytesOut:          s.m.bytesOut.Load(),
		NetWrites:         s.m.netWrites.Load(),
		VectoredWrites:    s.m.vectoredWrites.Load(),
		ConnsOpened:       s.m.connsOpened.Load(),
		ConnsClosed:       s.m.connsClosed.Load(),
		ShedWriteFailures: s.m.shedWriteFailures.Load(),
	}
}
