package kvserver

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/adaptivekv"
	"repro/internal/kvproto"
)

// Backend is the store the request loop serves from: the node's own
// adaptivekv cache (New), or a kvcluster.Cluster behind the router
// (NewWithBackend). A run of consecutive pipelined gets (or gets) and a
// run of consecutive sets each arrive as one batched call; cas and
// delete end a run and arrive alone. Key and value arguments alias the
// parser's buffers or the loop's run arena and are valid only for the
// call.
//
// A non-nil error fails the op and is answered "SERVER_ERROR <msg>":
// "node down" when the error chain has a NodeDown() bool method
// reporting true, "unacked" for kvproto.ErrUnacked (an ambiguous write,
// counted and never replayed), "backend failure" otherwise.
type Backend interface {
	// GetBatch answers a run of keys: oks[i] and vals[i] for every key,
	// and casids[i] too when casids is non-nil (a gets run). vals[i].Data
	// must stay valid until the next call. It returns nil when every key
	// got an answer; otherwise errs[i] holds the error of each key that
	// got none and is nil for the rest.
	GetBatch(keys []string, vals []Value, casids []uint64, oks []bool, errs []error) error
	// SetBatch stores a run of consecutive sets in request order (a run
	// of one for a lone set). It sets errs[i] for every set, nil when
	// the set was stored, and returns nil when every set was stored.
	SetBatch(sets []kvproto.SetReq, errs []error) error
	Cas(key []byte, flags uint32, exptime int64, casid uint64, val []byte) (kvproto.CasStatus, error)
	Delete(key []byte) (found bool, err error)
	FlushAll() error
	// WriteStats writes the backend's STAT lines; the loop frames them
	// with uptime_seconds and END.
	WriteStats(w *bufio.Writer)
}

// cacheBackend serves the loop from the Server's own cache. It never
// fails. Stored values are copied: the cache keeps them past the
// parser's buffers.
type cacheBackend struct{ s *Server }

func (b cacheBackend) GetBatch(keys []string, vals []Value, casids []uint64, oks []bool, _ []error) error {
	if casids == nil {
		b.s.cache.GetBatch(keys, vals, oks)
	} else {
		b.s.cache.GetBatchCas(keys, vals, casids, oks)
	}
	return nil
}

func (b cacheBackend) SetBatch(sets []kvproto.SetReq, errs []error) error {
	now := time.Now()
	for i := range sets {
		st := &sets[i]
		deadline := kvproto.DeadlineNanos(st.Exptime, now)
		b.s.cache.SetTTL(string(st.Key), Value{Flags: st.Flags, Data: bytes.Clone(st.Value)}, deadline)
		errs[i] = nil
	}
	return nil
}

func (b cacheBackend) Cas(key []byte, flags uint32, exptime int64, casid uint64, val []byte) (kvproto.CasStatus, error) {
	deadline := kvproto.DeadlineNanos(exptime, time.Now())
	switch b.s.cache.CompareAndSwap(string(key), Value{Flags: flags, Data: bytes.Clone(val)}, casid, deadline) {
	case adaptivekv.CasStored:
		return kvproto.CasStored, nil
	case adaptivekv.CasExists:
		return kvproto.CasExists, nil
	default:
		return kvproto.CasNotFound, nil
	}
}

func (b cacheBackend) Delete(key []byte) (bool, error) { return b.s.cache.Delete(string(key)), nil }

func (b cacheBackend) FlushAll() error {
	b.s.cache.Flush()
	return nil
}

// WriteStats emits aggregate counters, the cache shape, robustness
// counters, latency summaries, and per-shard adaptive-scheme detail.
func (b cacheBackend) WriteStats(w *bufio.Writer) {
	s := b.s
	st := s.cache.Stats()
	cfg := s.cache.Config()
	ct := s.Counters()
	nc := s.NetCounters()
	kvproto.WriteStatStr(w, "mode", string(cfg.Mode))
	kvproto.WriteStatStr(w, "components", strings.Join(cfg.Components, ","))
	kvproto.WriteStat(w, "shards", uint64(cfg.Shards))
	kvproto.WriteStat(w, "capacity", uint64(s.cache.Capacity()))
	kvproto.WriteStat(w, "items", uint64(s.cache.Len()))
	kvproto.WriteStat(w, "cmd_get", st.Gets)
	kvproto.WriteStat(w, "get_hits", st.GetHits)
	kvproto.WriteStat(w, "get_misses", st.Gets-st.GetHits)
	kvproto.WriteStat(w, "cmd_set", st.Stores)
	kvproto.WriteStat(w, "cmd_cas", st.CasOps())
	kvproto.WriteStat(w, "cas_hits", st.CasStored)
	kvproto.WriteStat(w, "cas_badval", st.CasConflicts)
	kvproto.WriteStat(w, "cas_misses", st.CasMisses)
	kvproto.WriteStat(w, "sets_rejected", s.m.setsRejected.Load())
	kvproto.WriteStat(w, "cmd_delete", st.Deletes)
	kvproto.WriteStat(w, "delete_hits", st.DeleteHits)
	kvproto.WriteStat(w, "evictions", st.Evictions)
	kvproto.WriteStat(w, "policy_switches", st.PolicySwitches)
	kvproto.WriteStat(w, "hash_collisions", st.HashCollisions)
	kvproto.WriteStat(w, "flushes", s.m.flushes.Load())
	kvproto.WriteStat(w, "optimistic_get_fastpath", st.OptimisticFastpath)
	kvproto.WriteStat(w, "optimistic_get_fallback", st.OptimisticFallback)
	kvproto.WriteStat(w, "pending_hits_dropped", st.PendingHitsDropped)
	kvproto.WriteStat(w, "expired", st.Expired)
	kvproto.WriteStat(w, "sweep_removed", st.SweepRemoved)
	kvproto.WriteStat(w, "sweep_passes", s.cache.SweepPasses())
	kvproto.WriteStat(w, "conns_rejected", ct.ConnsRejected)
	kvproto.WriteStat(w, "panics_recovered", ct.PanicsRecovered)
	kvproto.WriteStat(w, "accept_retries", ct.AcceptRetries)
	kvproto.WriteStat(w, "client_errors", ct.ClientErrors)
	kvproto.WriteStat(w, "shed_write_failures", ct.ShedWriteFailures)
	kvproto.WriteStat(w, "bytes_in", nc.BytesIn)
	kvproto.WriteStat(w, "bytes_out", nc.BytesOut)
	kvproto.WriteStat(w, "vectored_writes", nc.VectoredWrites)
	kvproto.WriteStat(w, "conns_opened", nc.ConnsOpened)
	kvproto.WriteStat(w, "conns_active", uint64(s.ConnsActive()))
	for _, op := range opNames {
		ol := s.OpLatency(op)
		kvproto.WriteStat(w, op+"_latency_count", ol.Count)
		kvproto.WriteStat(w, op+"_latency_p50_us", uint64(ol.P50.Microseconds()))
		kvproto.WriteStat(w, op+"_latency_p99_us", uint64(ol.P99.Microseconds()))
		kvproto.WriteStat(w, op+"_latency_max_us", uint64(ol.Max.Microseconds()))
	}
	kvproto.WriteStatStr(w, "hit_ratio", fmt.Sprintf("%.4f", st.HitRatio()))
	kvproto.WriteStatStr(w, "adaptive_overhead_pct", fmt.Sprintf("%.4f", s.cache.OverheadPercent()))
	for i := 0; i < s.cache.Shards(); i++ {
		sh := s.cache.ShardStats(i)
		prefix := fmt.Sprintf("shard%d_", i)
		kvproto.WriteStat(w, prefix+"gets", sh.Gets)
		kvproto.WriteStat(w, prefix+"get_hits", sh.GetHits)
		kvproto.WriteStat(w, prefix+"evictions", sh.Evictions)
		kvproto.WriteStat(w, prefix+"policy_switches", sh.PolicySwitches)
		kvproto.WriteStat(w, prefix+"items", uint64(s.cache.ShardOccupancy(i)))
		if wn := s.cache.Winner(i); wn >= 0 {
			kvproto.WriteStatStr(w, prefix+"winner", cfg.Components[wn])
		}
	}
}
