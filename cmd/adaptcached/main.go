// Command adaptcached serves the adaptivekv cache over a minimal
// memcached-style text protocol (get/set/delete/stats/quit). It exists to
// demonstrate the paper's adaptive replacement scheme doing real work:
// every stored value's lifetime is decided by the SBAR-sampled LRU/LFU
// machinery rather than a fixed eviction rule.
//
// Examples:
//
//	adaptcached -addr 127.0.0.1:11311
//	adaptcached -mode adaptive -components LRU,FIFO -shards 16
//	adaptcached -http 127.0.0.1:8080   # Prometheus at /metrics, expvar at /debug/vars, health at /healthz
//	adaptcached -max-conns 1024 -max-item-size 65536
//
// Robustness (see internal/kvserver): transient accept errors are retried
// with backoff instead of killing the listener; past -max-conns new
// connections are shed with "SERVER_ERROR busy"; values over
// -max-item-size are refused with "SERVER_ERROR object too large"; a
// panic in one connection handler never takes the process down. Runtime
// counters (per-shard gets/hits/stores/evictions/policy switches plus
// conns_rejected, panics_recovered, accept_retries, client_errors) are
// published through expvar under "adaptivekv"; pass -http to serve them
// alongside /healthz (200 while accepting, 503 while draining) and
// /metrics (Prometheus text exposition: per-op latency histograms at
// bounded ≤3.125% relative error, byte/connection counters, per-shard
// occupancy and SBAR winners — scraped one shard lock at a time).
// SIGINT/SIGTERM drain connections gracefully.
package main

import (
	"expvar"
	"flag"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -http mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/adaptivekv"
	"repro/internal/kvproto"
	"repro/internal/kvserver"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:11311", "TCP listen address")
		httpAddr = flag.String("http", "", "optional HTTP listen address for expvar (/debug/vars) and /healthz")
		shards   = flag.Int("shards", 8, "lock-striped shards (power of two)")
		sets     = flag.Int("sets", 1024, "sets per shard (power of two)")
		ways     = flag.Int("ways", 8, "entries per set")
		mode     = flag.String("mode", "sbar", "replacement mode: sbar|adaptive|single")
		comps    = flag.String("components", "LRU,LFU", "component policies (comma-separated)")
		leaders  = flag.Int("leaders", 0, "SBAR leader sets per shard (0 = default 16)")
		tagBits  = flag.Int("tagbits", 8, "partial shadow-tag bits (<0 = full tags)")
		readTO   = flag.Duration("read-timeout", 5*time.Minute, "per-request read deadline (0 = none)")
		writeTO  = flag.Duration("write-timeout", 30*time.Second, "per-reply write deadline (0 = none)")
		grace    = flag.Duration("drain", 5*time.Second, "shutdown drain period")
		maxConns = flag.Int("max-conns", 0, "max concurrent connections; beyond this new arrivals are shed with SERVER_ERROR busy (0 = unlimited)")
		maxItem  = flag.Int("max-item-size", kvproto.MaxValueBytes, "largest accepted value in bytes (admission bound under the protocol's 1 MiB cap)")
	)
	flag.Parse()

	cfg := adaptivekv.Config{
		Shards:        *shards,
		Sets:          *sets,
		Ways:          *ways,
		Mode:          adaptivekv.Mode(*mode),
		Components:    strings.Split(*comps, ","),
		LeaderSets:    *leaders,
		ShadowTagBits: *tagBits,
	}
	srv := kvserver.New(kvserver.Config{
		Cache:        cfg,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		MaxConns:     *maxConns,
		MaxItemSize:  *maxItem,
		Logf:         log.Printf,
	})
	expvar.Publish("adaptivekv", expvar.Func(srv.ExpvarMap))
	http.HandleFunc("/healthz", srv.Healthz)
	http.Handle("/metrics", srv.MetricsHandler())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("adaptcached: %v", err)
	}
	log.Printf("adaptcached: serving %s/%s on %s (%d shards x %d sets x %d ways = %d entries, adaptive overhead %.3f%%)",
		cfg.Mode, *comps, ln.Addr(), cfg.Shards, cfg.Sets, cfg.Ways,
		srv.Cache().Capacity(), srv.Cache().OverheadPercent())

	if *httpAddr != "" {
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				log.Printf("adaptcached: expvar server: %v", err)
			}
		}()
	}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("adaptcached: draining (%s grace)", *grace)
		srv.Shutdown(ln, *grace)
	}()

	srv.Serve(ln)
	srv.Wait()
	st := srv.Cache().Stats()
	ct := srv.Counters()
	log.Printf("adaptcached: served %d gets (%.4f hit ratio), %d sets, %d evictions, %d policy switches",
		st.Gets, st.HitRatio(), st.Stores, st.Evictions, st.PolicySwitches)
	if ct.ConnsRejected+ct.PanicsRecovered+ct.AcceptRetries+ct.ClientErrors > 0 {
		log.Printf("adaptcached: robustness: %d conns rejected, %d panics recovered, %d accept retries, %d client errors",
			ct.ConnsRejected, ct.PanicsRecovered, ct.AcceptRetries, ct.ClientErrors)
	}
}
