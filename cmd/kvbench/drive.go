package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/adaptivekv"
	"repro/internal/fleet"
	"repro/internal/kvcluster"
	"repro/internal/kvproto"
	"repro/internal/kvserver"
)

// plan sizes one run.
type plan struct {
	window  time.Duration // the measured window (a traced run splits it in two)
	setups  int           // set-ups per untraced run; setup_s is their median
	netReqs int           // requests each network rung of the ladder replays
	shift   uint          // divides key spaces, warm-up and ladder sizes by 2^shift (tests)
}

// target is the program under test: one kvserver, or a kvcluster.Router
// in front of a fleet.
type target struct {
	addr    string
	servers []*kvserver.Server
	stop    func()
}

func startServer(cache adaptivekv.Config, ln net.Listener) (*kvserver.Server, func()) {
	srv := kvserver.New(kvserver.Config{Cache: cache})
	served := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(served)
	}()
	return srv, func() {
		srv.Shutdown(ln, time.Second)
		<-served
	}
}

// startCluster brings up nodes kvservers and a replicated Cluster over
// them: R=2 and two pooled connections per node.
func startCluster(nodes int, cache adaptivekv.Config) (*fleet.Fleet, *kvcluster.Cluster, error) {
	f, err := fleet.Start(nodes, func(int) fleet.NodeConfig {
		return fleet.NodeConfig{Server: kvserver.Config{Cache: cache}}
	})
	if err != nil {
		return nil, nil, err
	}
	cl, err := kvcluster.New(kvcluster.Config{
		Nodes:    f.Addrs(),
		Seed:     1,
		PoolSize: 2,
		Replicas: 2,
		Reconnect: kvproto.ReconnectConfig{
			ReadTimeout:  replyTimeout,
			WriteTimeout: replyTimeout,
		},
	})
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	cl.Start()
	return f, cl, nil
}

func fleetServers(f *fleet.Fleet) []*kvserver.Server {
	var s []*kvserver.Server
	for _, n := range f.Nodes {
		s = append(s, n.Server())
	}
	return s
}

func startTarget(w *workload) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if w.nodes == 0 {
		srv, stop := startServer(w.cache, ln)
		return &target{addr: ln.Addr().String(), servers: []*kvserver.Server{srv}, stop: stop}, nil
	}
	f, cl, err := startCluster(w.nodes, w.cache)
	if err != nil {
		ln.Close()
		return nil, err
	}
	stop := serveRouter(cl, ln)
	return &target{addr: ln.Addr().String(), servers: fleetServers(f), stop: func() {
		stop()
		cl.Close()
		f.Close()
	}}, nil
}

// serveRouter serves a kvcluster.Router in front of cl on ln.
func serveRouter(cl *kvcluster.Cluster, ln net.Listener) (stop func()) {
	router := kvcluster.NewRouter(cl, kvcluster.RouterConfig{})
	served := make(chan struct{})
	go func() {
		router.Serve(ln)
		close(served)
	}()
	return func() {
		router.Shutdown(ln, time.Second)
		<-served
	}
}

func evictionsOf(servers []*kvserver.Server) func() uint64 {
	return func() uint64 {
		var n uint64
		for _, s := range servers {
			n += s.Cache().Stats().Evictions
		}
		return n
	}
}

// window is one measured interval. Every connection runs its closed loop
// from start until stop and records one latency sample per batch.
type window struct {
	d      time.Duration
	tr     *tracer // nil: untraced
	start  chan struct{}
	stop   atomic.Bool
	done   sync.WaitGroup
	counts []counts
	lat    [][]float64 // ns per batch, per connection
	took   time.Duration
}

func newWindow(d time.Duration, tr *tracer) *window {
	w := &window{d: d, tr: tr, start: make(chan struct{}),
		counts: make([]counts, clientConns), lat: make([][]float64, clientConns)}
	w.done.Add(clientConns)
	return w
}

func (w *window) total() counts {
	var c counts
	for _, x := range w.counts {
		c.add(x)
	}
	return c
}

// driver runs one set-up of a workload: the target, the client
// connections and their sessions, then the measured windows.
type driver struct {
	w        *workload
	t        *target
	bes      []*protoBackend
	sessions []session
	windows  []*window
	warmed   sync.WaitGroup
	exited   sync.WaitGroup

	mu  sync.Mutex
	err error
}

// newDriver starts the target and the clients; the clients preload and
// warm up at once, and warmed is released when all are done.
func newDriver(w *workload, p plan, seed uint64, windows []*window) (*driver, error) {
	t, err := startTarget(w)
	if err != nil {
		return nil, err
	}
	d := &driver{w: w, t: t, windows: windows}
	drawn := new(atomic.Uint64)
	for i := range clientConns {
		conn, err := net.DialTimeout("tcp", t.addr, replyTimeout)
		if err != nil {
			d.close()
			return nil, err
		}
		d.bes = append(d.bes, newProtoBackend(conn))
		d.sessions = append(d.sessions, w.newSession(sessionConfig{
			seed: seed, conn: i, conns: clientConns, shift: p.shift, evictions: evictionsOf(t.servers), drawn: drawn,
		}))
	}
	warm := scaled(w.warmup, p.shift) / clientConns
	d.warmed.Add(clientConns)
	d.exited.Add(clientConns)
	for i := range clientConns {
		go d.worker(i, warm)
	}
	return d, nil
}

func (d *driver) setErr(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err == nil {
		d.err = err
	}
}

// exec runs one batch and settles it.
func exec(be backend, s session, b []*request) error {
	if err := be.do(b, s); err != nil {
		return err
	}
	s.done(b)
	return nil
}

func (d *driver) worker(i int, warm uint64) {
	defer d.exited.Done()
	s, be := d.sessions[i], d.bes[i]
	err := func() error {
		for b := s.preload(); b != nil; b = s.preload() {
			if err := exec(be, s, b); err != nil {
				return err
			}
		}
		for base := s.counts().ops; s.counts().ops-base < warm; {
			if err := exec(be, s, s.next()); err != nil {
				return err
			}
		}
		return nil
	}()
	d.warmed.Done()
	for _, w := range d.windows {
		<-w.start
		if err == nil {
			err = d.measure(i, w, s, be)
		}
		w.done.Done()
	}
	if err != nil {
		d.setErr(fmt.Errorf("connection %d: %w", i, err))
	}
}

func (d *driver) measure(i int, w *window, s session, be backend) error {
	before := *s.counts()
	defer func() { w.counts[i] = s.counts().sub(before) }()
	for seq := uint64(0); !w.stop.Load(); seq++ {
		b := s.next()
		t0 := time.Now()
		if err := be.do(b, s); err != nil {
			return err
		}
		t1 := time.Now()
		s.done(b)
		w.lat[i] = append(w.lat[i], float64(t1.Sub(t0)))
		if seq%spanEvery == 0 {
			w.tr.record("client.batch", uint64(i)<<32|seq, t0, t1)
		}
	}
	return nil
}

// run opens the window, waits its duration, and closes it once every
// connection has finished the batch in flight.
func (d *driver) run(w *window) {
	t0 := time.Now()
	close(w.start)
	time.Sleep(w.d)
	w.stop.Store(true)
	w.done.Wait()
	w.took = time.Since(t0)
}

// failures counts every failed operation of the set-up, warm-up and
// windows alike, plus one for a broken connection.
func (d *driver) failures() (uint64, string) {
	var c counts
	for _, s := range d.sessions {
		c.add(*s.counts())
	}
	if d.err != nil {
		c.fail(1, d.err.Error())
	}
	return c.failed, c.firstFailure
}

// residentBytes is Σ resident (key+value) bytes over every server.
func (d *driver) residentBytes() float64 {
	n := 0
	for _, s := range d.t.servers {
		n += s.Cache().Len()
	}
	return float64(n * (keyBytes + d.w.valueBytes))
}

func (d *driver) close() {
	for _, b := range d.bes {
		b.close()
	}
	d.exited.Wait()
	d.t.stop()
}

// snapshot holds the accessor readings a traced window is judged by.
type snapshot struct {
	at    time.Time
	cache adaptivekv.Stats
	net   kvserver.NetCounters
	mem   runtime.MemStats
	gcCPU []metrics.Sample
}

func takeSnapshot(servers []*kvserver.Server) snapshot {
	s := snapshot{at: time.Now(), gcCPU: []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}}
	for _, srv := range servers {
		s.cache.Add(srv.Cache().Stats())
		nc := srv.NetCounters()
		s.net.BytesOut += nc.BytesOut
		s.net.NetWrites += nc.NetWrites
		s.net.VectoredWrites += nc.VectoredWrites
	}
	runtime.ReadMemStats(&s.mem)
	metrics.Read(s.gcCPU)
	return s
}

// windowLayers derives the per-layer window counters of the traced
// window from accessor deltas; ops is the client-side operation count.
func windowLayers(m map[string]float64, a, b snapshot, ops uint64) {
	o := float64(max(ops, 1))
	gets := float64(max(b.cache.Gets-a.cache.Gets, 1))
	m["adaptivekv.evictions_per_op"] = float64(b.cache.Evictions-a.cache.Evictions) / o
	m["adaptivekv.expired_per_op"] = float64(b.cache.Expired-a.cache.Expired) / o
	m["adaptivekv.fastpath_ratio"] = float64(b.cache.OptimisticFastpath-a.cache.OptimisticFastpath) / gets
	m["adaptivekv.fallback_ratio"] = float64(b.cache.OptimisticFallback-a.cache.OptimisticFallback) / gets
	m["adaptivekv.pending_dropped_ratio"] = float64(b.cache.PendingHitsDropped-a.cache.PendingHitsDropped) / gets
	m["kvserver.net_writes_per_op"] = float64(b.net.NetWrites-a.net.NetWrites) / o
	m["kvserver.bytes_out_per_op"] = float64(b.net.BytesOut-a.net.BytesOut) / o
	m["kvserver.vectored_write_ratio"] = float64(b.net.VectoredWrites-a.net.VectoredWrites) / float64(max(b.net.NetWrites-a.net.NetWrites, 1))
	m["runtime.allocs_per_op"] = float64(b.mem.Mallocs-a.mem.Mallocs) / o
	m["runtime.alloc_bytes_per_op"] = float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / o
	m["runtime.gc_cycles_per_mop"] = float64(b.mem.NumGC-a.mem.NumGC) / o * 1e6
	gc := b.gcCPU[0].Value.Float64() - a.gcCPU[0].Value.Float64()
	m["runtime.gc_cpu_fraction"] = gc / (b.at.Sub(a.at).Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// serviceMeans reads the servers' per-op service-time histograms through
// their exposition (sum and count since start, summed over servers) and
// sets the mean service time of get and set in µs.
func serviceMeans(m map[string]float64, servers []*kvserver.Server) {
	for _, op := range []string{"get", "set"} {
		var sum, n float64
		for _, srv := range servers {
			var buf bytes.Buffer
			srv.WriteMetrics(&buf)
			sum += promSample(buf.Bytes(), `kv_op_latency_seconds_sum{op="`+op+`"}`)
			n += promSample(buf.Bytes(), `kv_op_latency_seconds_count{op="`+op+`"}`)
		}
		m["kvserver.service_us."+op+".mean"] = sum / max(n, 1) * 1e6
	}
}

func promSample(expo []byte, series string) float64 {
	for _, line := range bytes.Split(expo, []byte{'\n'}) {
		if v, ok := bytes.CutPrefix(line, []byte(series+" ")); ok {
			// The exposition writes every value with strconv.FormatFloat.
			f, _ := strconv.ParseFloat(string(v), 64)
			return f
		}
	}
	return 0
}
