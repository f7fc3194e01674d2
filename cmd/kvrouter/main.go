// Command kvrouter fronts a fleet of adaptcached nodes with one kvproto
// endpoint: clients speak the ordinary text protocol to the router, and
// the router owns placement (seeded consistent-hash ring with virtual
// nodes), fanout (scatter-gather multi-key gets reassembled in request
// order), and fleet health (noop probing with failure-threshold
// ejection and capped-backoff reintegration).
//
// Examples:
//
//	kvrouter -addr 127.0.0.1:11411 -nodes 10.0.0.1:11311,10.0.0.2:11311,10.0.0.3:11311
//	kvrouter -nodes a:11311,b:11311 -pool 8 -probe-interval 100ms
//	kvrouter -nodes a:11311,b:11311,c:11311 -replicas 2   # survive one node loss
//	kvrouter -http 127.0.0.1:8090   # Prometheus at /metrics, health at /healthz
//
// Failure semantics (see internal/kvcluster): an ejected owner's
// keyspace answers "SERVER_ERROR node down" immediately instead of
// queueing behind a dead peer; a multi-key get or gets that lost an owner
// delivers the surviving VALUE blocks in request order and terminates
// with SERVER_ERROR instead of END; an ambiguous write surfaces as
// "SERVER_ERROR unacked" and is never replayed. With -replicas 2 each
// key has two ring owners: writes ack on the first live owner and
// best-effort copy to the rest, reads fail over to the next live owner,
// and a recovered node is flushed before reintegration so it can serve
// misses but never stale values. The router is kvserver's request loop
// over the cluster: accept retry with backoff, -max-conns shedding,
// per-connection panic isolation, graceful drain on SIGINT/SIGTERM,
// get-run batching, and kvrouter_* per-op metrics on -http.
package main

import (
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

	"repro/internal/kvcluster"
	"repro/internal/kvproto"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:11411", "TCP listen address")
		httpAddr = flag.String("http", "", "optional HTTP listen address for /metrics and /healthz")
		nodes    = flag.String("nodes", "", "comma-separated backend node addresses (required)")
		vnodes   = flag.Int("vnodes", kvcluster.DefaultVNodes, "virtual nodes per backend on the hash ring")
		seed     = flag.Uint64("seed", 1, "ring placement and backoff-jitter seed")
		pool     = flag.Int("pool", 4, "connections per backend node")
		replicas = flag.Int("replicas", 1, "ring owners per key; 2 replicates writes and fails reads over to the next live owner")
		failThr  = flag.Int("fail-threshold", kvcluster.DefaultFailThreshold, "consecutive failures that eject a node")
		probeIvl = flag.Duration("probe-interval", 250*time.Millisecond, "health probe period per node")
		probeMax = flag.Duration("probe-backoff-max", 2*time.Second, "probe delay cap while a node is ejected")
		dialTO   = flag.Duration("dial-timeout", 2*time.Second, "backend dial timeout")
		backTO   = flag.Duration("backend-timeout", 5*time.Second, "backend read/write timeout")
		readTO   = flag.Duration("read-timeout", 5*time.Minute, "per-request client read deadline (0 = none)")
		writeTO  = flag.Duration("write-timeout", 30*time.Second, "per-reply client write deadline (0 = none)")
		grace    = flag.Duration("drain", 5*time.Second, "shutdown drain period")
		maxConns = flag.Int("max-conns", 0, "max concurrent client connections; beyond this arrivals are shed with SERVER_ERROR busy (0 = unlimited)")
	)
	flag.Parse()

	nodeList := strings.Split(*nodes, ",")
	for i := range nodeList {
		nodeList[i] = strings.TrimSpace(nodeList[i])
	}
	if *nodes == "" || len(nodeList) == 0 {
		log.Fatal("kvrouter: -nodes is required (comma-separated backend addresses)")
	}

	cl, err := kvcluster.New(kvcluster.Config{
		Nodes:           nodeList,
		VNodes:          *vnodes,
		Seed:            *seed,
		PoolSize:        *pool,
		Replicas:        *replicas,
		FailThreshold:   *failThr,
		ProbeInterval:   *probeIvl,
		ProbeBackoffMax: *probeMax,
		Reconnect: kvproto.ReconnectConfig{
			DialTimeout:  *dialTO,
			ReadTimeout:  *backTO,
			WriteTimeout: *backTO,
			Seed:         *seed,
		},
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatalf("kvrouter: %v", err)
	}
	cl.Start()

	router := kvcluster.NewRouter(cl, kvcluster.RouterConfig{
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
		MaxConns:     *maxConns,
		Logf:         log.Printf,
	})
	http.HandleFunc("/healthz", router.Healthz)
	http.Handle("/metrics", router.MetricsHandler())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("kvrouter: %v", err)
	}
	log.Printf("kvrouter: routing %d nodes on %s (%d vnodes/node, pool %d, probe %v)",
		len(nodeList), ln.Addr(), *vnodes, *pool, *probeIvl)

	if *httpAddr != "" {
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				log.Printf("kvrouter: http server: %v", err)
			}
		}()
	}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("kvrouter: draining (%s grace)", *grace)
		router.Shutdown(ln, *grace)
	}()

	router.Serve(ln)
	router.Wait()
	cl.Close()
	bc := cl.BackendCounters()
	log.Printf("kvrouter: backend tallies: %d redials, %d retries, %d unacked, %d exhausted",
		bc.Redials.Load(), bc.Retries.Load(), bc.Unacked.Load(), bc.Exhausted.Load())
}
