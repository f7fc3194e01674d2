// Command kvbench is the end-to-end benchmark of the serving stack: the
// adaptive engine under adaptivekv, kvproto, kvserver and kvcluster. It
// runs four closed-loop workloads in process — server or fleet and load
// generator together, two client connections — checks every reply
// against what it stored, and prints every metric by name and unit.
//
//	bash cmd/kvbench/run.sh -seed 1 -out run.json           # all workloads
//	bash cmd/kvbench/run.sh --workload router-mixed --seed 3 --seconds 20 --trace 0
//	bash cmd/kvbench/run.sh -trace 1 -workload multiget-hot  # per-layer metrics
//	bash cmd/kvbench/run.sh -compare 'base/*.json' 'head/*.json'
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics. A run that saw a wrong value, an
// unexplained miss or a failed request exits 1. See README.md for the
// workloads, the metrics and the comparison procedure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the stack sees; BENCHMARK.json fixes
// their regression bounds.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"hit_ratio", "ratio"},
	{"success_ratio", "ratio"},
	{"heap_bytes_per_user_byte", "B/B"},
	{"setup_s", "s"},
}

// perLayer are the traced run's metrics, one layer each.
var perLayer = []metricDef{
	{"core.lookup_ns.p50", "ns"},
	{"core.lookup_ns.p99", "ns"},
	{"core.store_ns.p50", "ns"},
	{"core.store_ns.p99", "ns"},
	{"core.policy_switches_per_mop", "1/Mop"},
	{"adaptivekv.hit_ratio.sbar", "ratio"},
	{"adaptivekv.hit_ratio.lru", "ratio"},
	{"adaptivekv.hit_ratio.lfu", "ratio"},
	{"adaptivekv.miss_ratio_vs_best", "x"},
	{"adaptivekv.getbatch_ns_per_key.p50", "ns"},
	{"adaptivekv.getbatch_ns_per_key.p99", "ns"},
	{"adaptivekv.set_ns.p50", "ns"},
	{"adaptivekv.set_ns.p99", "ns"},
	{"adaptivekv.evictions_per_op", "1/op"},
	{"adaptivekv.expired_per_op", "1/op"},
	{"adaptivekv.fastpath_ratio", "ratio"},
	{"adaptivekv.fallback_ratio", "ratio"},
	{"adaptivekv.pending_dropped_ratio", "ratio"},
	{"kvproto.parse_ns_per_req.p50", "ns"},
	{"kvproto.parse_ns_per_req.p99", "ns"},
	{"kvproto.reply_ns_per_key.p50", "ns"},
	{"kvproto.client_read_ns_per_key.p50", "ns"},
	{"kvproto.wire_bytes_per_op", "B/op"},
	{"kvserver.pipe_rtt_us.p50", "us"},
	{"kvserver.pipe_rtt_us.p99", "us"},
	{"kvserver.tcp_minus_pipe_us.p50", "us"},
	{"kvserver.service_us.get.mean", "us"},
	{"kvserver.service_us.set.mean", "us"},
	{"kvserver.net_writes_per_op", "1/op"},
	{"kvserver.bytes_out_per_op", "B/op"},
	{"kvserver.vectored_write_ratio", "ratio"},
	{"kvcluster.multiget_us.p50", "us"},
	{"kvcluster.multiget_us.p99", "us"},
	{"kvcluster.set_us.p50", "us"},
	{"kvcluster.router_self_us.p50", "us"},
	{"kvcluster.backend_writes_per_key", "1/op"},
	{"kvcluster.failover_reads_per_mop", "1/Mop"},
	{"runtime.allocs_per_op", "1/op"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_cycles_per_mop", "1/Mop"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_ratio", "x"},
}

// defaultPlan is the full-size run: the window is -seconds long.
func defaultPlan(seconds int) plan {
	return plan{window: time.Duration(seconds) * time.Second, setups: 3, netReqs: 4096}
}

// metric is one reported value; Samples is the sample count behind a
// percentile (0 for other metrics).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one workload's run, as written to -out.
type result struct {
	Workload        string            `json:"workload"`
	Valid           bool              `json:"valid"`
	Conns           int               `json:"conns"`
	Traced          bool              `json:"traced"`
	WarmupOps       uint64            `json:"warmup_ops"`
	MeasuredOps     uint64            `json:"measured_ops"`
	MeasuredSeconds float64           `json:"measured_seconds"`
	SetupSeconds    []float64         `json:"setup_seconds"`
	Correct         bool              `json:"correct"`
	Attempted       uint64            `json:"attempted"`
	Failed          uint64            `json:"failed"`
	FirstFailure    string            `json:"first_failure,omitempty"`
	Metrics         map[string]metric `json:"metrics"`
	Spans           string            `json:"spans,omitempty"`
	SpansDropped    uint64            `json:"spans_dropped,omitempty"`
}

func (r *result) set(defs []metricDef, name string, v float64, samples int) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit, Samples: samples}
			return
		}
	}
	panic("kvbench: undeclared metric " + name)
}

// provenance records what a run was measured on.
type provenance struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Start      string `json:"start"`
}

type runFile struct {
	Provenance provenance `json:"provenance"`
	Results    []*result  `json:"results"`
}

// setUp sets the workload up n times, tearing down all but the last
// set-up, whose clients then measure windows. It returns that driver and
// the time each set-up took.
func setUp(w *workload, p plan, seed uint64, n int, windows []*window) (*driver, []float64, error) {
	var took []float64
	for i := range n {
		var ws []*window
		if i == n-1 {
			ws = windows
		}
		t0 := time.Now()
		d, err := newDriver(w, p, seed, ws)
		if err != nil {
			return nil, nil, err
		}
		d.warmed.Wait()
		took = append(took, time.Since(t0).Seconds())
		if i == n-1 {
			return d, took, nil
		}
		d.close()
		if failed, why := d.failures(); failed > 0 {
			return nil, nil, fmt.Errorf("set-up %d: %s", i, why)
		}
		runtime.GC()
	}
	panic("kvbench: no set-ups")
}

func newResult(w *workload, p plan, traced bool) *result {
	return &result{Workload: w.name, Valid: clientConns <= runtime.NumCPU(), Conns: clientConns,
		Traced: traced, WarmupOps: scaled(w.warmup, p.shift), Metrics: map[string]metric{}}
}

// finish records the outcome: failed operations against attempted ones.
func (r *result) finish(attempted, failed uint64, why string) {
	r.Attempted, r.Failed, r.FirstFailure = attempted, failed, why
	r.Correct = failed == 0
}

func runWorkload(w *workload, p plan, seed uint64, traced bool, spansPath string) (*result, error) {
	if traced {
		return runTraced(w, p, seed, spansPath)
	}
	return runMeasured(w, p, seed)
}

// runMeasured sets the workload up p.setups times and measures one
// window on the last set-up, with tracing off.
func runMeasured(w *workload, p plan, seed uint64) (*result, error) {
	win := newWindow(p.window, nil)
	d, setups, err := setUp(w, p, seed, p.setups, []*window{win})
	if err != nil {
		return nil, err
	}
	d.run(win)
	res := newResult(w, p, false)
	c := win.total()
	res.MeasuredOps, res.MeasuredSeconds, res.SetupSeconds = c.ops, win.took.Seconds(), setups
	var lat []float64
	for _, l := range win.lat {
		lat = append(lat, l...)
	}
	res.set(endToEnd, "ops_per_s", float64(c.ops)/win.took.Seconds(), 0)
	res.set(endToEnd, "latency_p50_us", quantile(lat, 0.50)/1e3, len(lat))
	res.set(endToEnd, "latency_p99_us", quantile(lat, 0.99)/1e3, len(lat))
	res.set(endToEnd, "hit_ratio", float64(c.hits)/float64(max(c.gets, 1)), 0)
	_, median, _ := quartiles(setups)
	res.set(endToEnd, "setup_s", median, 0)
	// The latency samples would count as heap; drop them first.
	lat, win.lat = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set(endToEnd, "heap_bytes_per_user_byte", float64(ms.HeapInuse)/max(d.residentBytes(), 1), 0)
	d.close()
	failed, why := d.failures()
	res.set(endToEnd, "success_ratio", 1-float64(failed)/float64(max(c.ops, 1)), 0)
	res.finish(c.ops, failed, why)
	return res, nil
}

// runTraced sets the workload up once, measures an untraced and a
// traced half-window back to back, then climbs the ladder.
func runTraced(w *workload, p plan, seed uint64, spansPath string) (*result, error) {
	tr := newTracer(1 << 16)
	plain, traced := newWindow(p.window/2, nil), newWindow(p.window/2, tr)
	d, setups, err := setUp(w, p, seed, 1, []*window{plain, traced})
	if err != nil {
		return nil, err
	}
	d.run(plain)
	before := takeSnapshot(d.t.servers)
	d.run(traced)
	after := takeSnapshot(d.t.servers)
	res := newResult(w, p, true)
	c, u := traced.total(), plain.total()
	res.MeasuredOps, res.MeasuredSeconds, res.SetupSeconds = c.ops, traced.took.Seconds(), setups
	m := map[string]float64{}
	windowLayers(m, before, after, c.ops)
	serviceMeans(m, d.t.servers)
	m["trace.overhead_ratio"] = float64(c.ops) / traced.took.Seconds() / (float64(u.ops) / plain.took.Seconds())
	d.close()
	failed, why := d.failures()

	runtime.GC()
	ladder, err := inProcessRungs(w, p, seed, tr, m)
	if err == nil {
		var cn counts
		cn, err = networkRungs(w, p, seed, tr, m)
		ladder.add(cn)
	}
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	for name, v := range m {
		res.set(perLayer, name, v, 0)
	}
	if why == "" {
		why = ladder.firstFailure
	}
	res.finish(c.ops+u.ops+ladder.ops, failed+ladder.failed, why)
	if spansPath != "" {
		if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
		res.Spans, res.SpansDropped = spansPath, tr.dropped()
	}
	return res, nil
}

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Uint64("seed", 1, "seed of every generated key stream")
		seconds   = flag.Int("seconds", 20, "length of the measured window per workload")
		traceFlag = flag.Int("trace", 0, "1: a traced run that reports the per-layer metrics")
		out       = flag.String("out", "", "also write the results with their provenance to this file")
		spans     = flag.String("spans", ".bench_build", "directory for the span files of a traced run")
		compare   = flag.Bool("compare", false, "compare two sets of -out files: kvbench -compare 'base/*.json' 'head/*.json'")
		bench     = flag.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds, for -compare")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: kvbench -compare 'base/*.json' 'head/*.json'")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, *bench, flag.Arg(0), flag.Arg(1)))
	}
	selected := workloads
	if *name != "all" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "kvbench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []*workload{w}
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "kvbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	traced := *traceFlag == 1

	rf := runFile{Provenance: provenance{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Seconds: *seconds, Start: time.Now().UTC().Format(time.RFC3339),
	}}
	p := defaultPlan(*seconds)
	for _, w := range selected {
		spansPath := ""
		if traced {
			spansPath = filepath.Join(*spans, fmt.Sprintf("kvbench-spans-%s-%d.json", w.name, *seed))
		}
		res, err := runWorkload(w, p, *seed, traced, spansPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kvbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		report(res)
		rf.Results = append(rf.Results, res)
	}
	if *out != "" {
		if err := writeJSON(*out, rf); err != nil {
			fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
			os.Exit(1)
		}
	}
	correct := finalLine(rf.Results, len(selected) > 1)
	if !correct {
		os.Exit(1)
	}
}

// report prints one workload's metrics, one per line, with units and
// sample counts.
func report(r *result) {
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	fmt.Printf("%s: %d ops measured in %.2fs, %d failed, valid=%v\n", r.Workload, r.MeasuredOps, r.MeasuredSeconds, r.Failed, r.Valid)
	if !r.Valid {
		fmt.Printf("  more client connections (%d) than CPUs (%d): not comparable\n", r.Conns, runtime.NumCPU())
	}
	if r.FirstFailure != "" {
		fmt.Printf("  first failure: %s\n", r.FirstFailure)
	}
	for _, d := range defs {
		m := r.Metrics[d.name]
		if m.Samples > 0 {
			fmt.Printf("  %-38s %14.6g %-6s (%d samples)\n", d.name, m.Value, d.unit, m.Samples)
		} else {
			fmt.Printf("  %-38s %14.6g %s\n", d.name, m.Value, d.unit)
		}
	}
}

// finalLine prints the machine-readable last line and reports whether
// every workload was correct. With several workloads the metric names
// carry the workload as a prefix.
func finalLine(results []*result, prefixed bool) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for name, m := range r.Metrics {
			if prefixed {
				name = r.Workload + "/" + name
			}
			line.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(b))
	return line.Correct
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
