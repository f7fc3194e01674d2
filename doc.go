// Package repro is a from-scratch Go reproduction of "Adaptive Caches:
// Effective Shaping of Cache Behavior to Workloads" (Subramanian,
// Smaragdakis, Loh — MICRO 2006).
//
// The library lives under internal/, with one exported subsystem:
//
//   - internal/core — the paper's contribution: adaptive replacement over
//     any N component policies with parallel shadow tag arrays (full or
//     partial tags), per-set miss history, the SBAR set-sampling variant,
//     and the Engine decision API that lifts the scheme out of trace
//     simulation for external stores.
//   - internal/cache, internal/policy, internal/history — the
//     set-associative cache substrate and the standard policies (LRU, LFU,
//     FIFO, MRU, Random).
//   - internal/cpu, internal/branch, internal/mem — the out-of-order
//     timing model standing in for the paper's SimpleScalar/MASE setup.
//   - internal/workload, internal/trace — the 100-program synthetic
//     benchmark suite and the binary trace format.
//   - internal/sim — experiment wiring plus one function per paper figure
//     and table.
//   - internal/kvproto — the memcached-style text protocol spoken by the
//     key-value binaries (get/gets/set/cas/delete/stats/quit), including
//     the reconnecting client: idempotent ops replay under one retry
//     helper, and set/cas/delete run under one at-most-once helper that
//     is the whole never-replay-ambiguous-writes contract (a replayed cas
//     could consume its own unique and report a false EXISTS).
//   - internal/kvcluster — the routing tier: seeded consistent-hash ring,
//     per-node connection pools with failure-threshold ejection and probed
//     reintegration, scatter-gather gets (single-key reads are gathers
//     of one key), optional R=2 replication (sync-owner writes with
//     best-effort replica fan-out, one retry pass on a failed read's next
//     live owner, flush-on-reintegrate), node-local cas
//     uniques (cas gates on the sync owner; a unique that survived a
//     failover answers EXISTS, never a lost update), and the Router:
//     kvserver's request loop over the Cluster, answering multi-key get
//     and gets, and runs of pipelined sets, with one per-owner scatter.
//   - internal/kvserver — the serving layer: the one request loop, over
//     a Backend (the local cache on a node, a kvcluster.Cluster on the
//     router), with batched get/gets runs and set runs, per-op
//     instruments, and the hardened envelope (accept retry, connection
//     shedding, panic isolation, drain).
//   - internal/fleet — in-process node fleets with kill/restart for chaos
//     drivers and tests; internal/faultnet — seeded network fault
//     injection; internal/chaosledger — the chaos drills' shared
//     verifying-client ledger (per-key version window, value codec, TTL
//     deadlines).
//   - adaptivekv — a sharded concurrent key-value cache whose replacement
//     decisions are made by the adaptive engine (the paper's scheme doing
//     real work, not simulation), with per-entry cas uniques for atomic
//     read-modify-write (GetCas/CompareAndSwap, allocation-free).
//
// The benchmarks in bench_test.go regenerate each figure of the paper's
// evaluation; see EXPERIMENTS.md for paper-vs-measured results and
// DESIGN.md for the system inventory.
//
// Binaries:
//
//   - cmd/adaptsim — run suite benchmarks under a chosen replacement
//     configuration, reporting MPKI/CPI.
//   - cmd/benchtables — regenerate the full paper tables.
//   - cmd/tracegen — emit synthetic traces in the binary trace format.
//   - cmd/benchregress — in-process micro gates: measure the simulator
//     and adaptivekv hot paths against BENCH_hotpath.json; -check gates
//     regressions in CI. It links no serving code.
//   - cmd/kvbench — the benchmark of record for the serving stack, a Go
//     module of its own: verified closed-loop workloads through the
//     protocol, the server and the router, with per-run provenance.
//   - cmd/verifybound — exhaustively check the 2x worst-case miss bound.
//   - cmd/adaptcached — serve adaptivekv over TCP (memcached-style text
//     protocol) with expvar counters and graceful shutdown.
//   - cmd/kvloadgen — closed-loop load generator replaying
//     internal/workload patterns against adaptcached, a kvrouter, or a
//     fleet via -targets (or in-process with -direct).
//   - cmd/kvrouter — consistent-hash routing proxy over a fleet of
//     adaptcached nodes: one kvproto endpoint, scatter-gather multigets,
//     health ejection and reintegration, -replicas 2 failover.
//   - cmd/kvchaos — seeded chaos drill, one verifying client over two
//     topologies plus the post-soak cas ledger (concurrent gets/cas
//     increments must balance). -topology node soaks one server behind
//     a fault-injecting listener and proxy; -topology router kills and
//     restarts a node behind a router mid-soak, asserting ejection,
//     surviving-keyspace availability, reintegration, and no
//     ambiguous-write replays, and with -replicas 2 partitions instead,
//     demanding zero failed ops plus a flush before reintegration;
//     race-enabled CI gates.
//
// Runnable examples live in examples/.
package repro
