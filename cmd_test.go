package repro

// End-to-end tests of the command-line tools: each binary is built with
// the local toolchain and driven through a small but real invocation.

import (
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCmd builds ./cmd/<name> into a temp dir and returns the binary path.
func buildCmd(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func runCmd(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestAdaptsimEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "adaptsim")

	out := runCmd(t, bin, "-bench", "lucas", "-policy", "LRU", "-n", "200000")
	if !strings.Contains(out, "lucas") || !strings.Contains(out, "LRU") {
		t.Fatalf("unexpected output:\n%s", out)
	}

	out = runCmd(t, bin, "-bench", "art-1", "-policy", "adaptive", "-tagbits", "8",
		"-n", "200000", "-mode", "timing")
	if !strings.Contains(out, "Adaptive(LRU/LFU,8-bit)") || !strings.Contains(out, "CPI") {
		t.Fatalf("timing mode output:\n%s", out)
	}

	out = runCmd(t, bin, "-bench", "gap", "-policy", "sbar", "-n", "200000")
	if !strings.Contains(out, "SBAR(LRU/LFU)") {
		t.Fatalf("sbar output:\n%s", out)
	}

	out = runCmd(t, bin, "-bench", "mcf", "-mode", "profile", "-n", "150000")
	if !strings.Contains(out, "L2-APKI") || !strings.Contains(out, "mcf") {
		t.Fatalf("profile output:\n%s", out)
	}

	// Unknown benchmark fails with a suggestion.
	cmd := exec.Command(bin, "-bench", "lukas")
	out2, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("unknown benchmark accepted:\n%s", out2)
	}
	if !strings.Contains(string(out2), "lucas") {
		t.Errorf("no suggestion for typo:\n%s", out2)
	}
}

func TestTracegenEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "tracegen")
	trc := filepath.Join(t.TempDir(), "x.trc")

	out := runCmd(t, bin, "-bench", "tiff2rgba", "-n", "100000", "-o", trc)
	if !strings.Contains(out, "recorded 100000 instructions") {
		t.Fatalf("record output:\n%s", out)
	}
	out = runCmd(t, bin, "-info", trc)
	if !strings.Contains(out, `"tiff2rgba"`) || !strings.Contains(out, "Load") {
		t.Fatalf("info output:\n%s", out)
	}
	out = runCmd(t, bin, "-replay", trc, "-policy", "adaptive")
	if !strings.Contains(out, "L2 MPKI") {
		t.Fatalf("replay output:\n%s", out)
	}
	out = runCmd(t, bin, "-reusedist", trc)
	if !strings.Contains(out, "LRU miss %") || !strings.Contains(out, "512KB") {
		t.Fatalf("reusedist output:\n%s", out)
	}
}

func TestBenchtablesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "benchtables")

	out := runCmd(t, bin, "-fig", "overhead")
	for _, want := range []string{"544.000", "598.000", "566.000", "9.926", "4.044"} {
		if !strings.Contains(out, want) {
			t.Fatalf("overhead table missing %q:\n%s", want, out)
		}
	}

	outFile := filepath.Join(t.TempDir(), "r.txt")
	runCmd(t, bin, "-fig", "overhead", "-out", outFile)
	data, err := os.ReadFile(outFile)
	if err != nil || !strings.Contains(string(data), "SRAM storage") {
		t.Fatalf("-out file: %v\n%s", err, data)
	}

	cmd := exec.Command(bin, "-fig", "999")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("unknown figure accepted:\n%s", out)
	}
}

// TestBenchregressEndToEnd runs the micro gates at a small -n and checks
// the file they write: only rows the host can run, no serving-stack
// rows, zero allocations on every serial row, and a -check against the
// file just written passes.
func TestBenchregressEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "benchregress")
	outFile := filepath.Join(t.TempDir(), "bench.json")
	runCmd(t, bin, "-n", "20000", "-macro-n", "0", "-out", outFile)

	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		NumCPU  int `json:"num_cpu"`
		HotPath []struct {
			Name            string  `json:"name"`
			AllocsPerAccess float64 `json:"allocs_per_access"`
			Parallelism     int     `json:"parallelism"`
			Gate            string  `json:"gate"`
		} `json:"hot_path"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("%s: %v", outFile, err)
	}
	if rep.NumCPU < 1 || len(rep.HotPath) == 0 {
		t.Fatalf("report without num_cpu or rows:\n%s", data)
	}
	for _, e := range rep.HotPath {
		if e.Parallelism > rep.NumCPU {
			t.Errorf("%s: measured at parallelism %d on %d CPUs", e.Name, e.Parallelism, rep.NumCPU)
		}
		if strings.Contains(e.Name, "loopback") {
			t.Errorf("%s: serving-stack row in the micro gates", e.Name)
		}
		if e.Gate == "" && e.AllocsPerAccess != 0 {
			t.Errorf("%s: serial row allocates %g per access", e.Name, e.AllocsPerAccess)
		}
	}
	runCmd(t, bin, "-check", "-n", "20000", "-tolerance", "10", "-out", outFile)
}

func TestVerifyboundEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "verifybound")
	out := runCmd(t, bin, "-ways", "2", "-blocks", "3", "-len", "6")
	if !strings.Contains(out, "holds on every trace") {
		t.Fatalf("verifybound output:\n%s", out)
	}
	out = runCmd(t, bin, "-ways", "2", "-blocks", "5", "-len", "200", "-random", "50")
	if !strings.Contains(out, "random check") {
		t.Fatalf("random mode output:\n%s", out)
	}
}

// TestAdaptcachedKvloadgenEndToEnd exercises the two key-value binaries
// together over a real loopback socket: adaptcached serving, kvloadgen
// driving pipelined connections, then a graceful SIGTERM drain.
func TestAdaptcachedKvloadgenEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	server := buildCmd(t, "adaptcached")
	loadgen := buildCmd(t, "kvloadgen")

	// Reserve a free loopback port, then hand it to the server.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var serverOut strings.Builder
	srv := exec.Command(server, "-addr", addr, "-shards", "4", "-sets", "256", "-drain", "2s")
	srv.Stdout = &serverOut
	srv.Stderr = &serverOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// Wait for the listener to come up.
	ok := false
	for i := 0; i < 100; i++ {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			ok = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !ok {
		t.Fatalf("server never came up:\n%s", serverOut.String())
	}

	out := runCmd(t, loadgen, "-addr", addr, "-conns", "2", "-ops", "40000", "-mix", "zipf")
	for _, want := range []string{"ops/s", "hit ratio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("loadgen output missing %q:\n%s", want, out)
		}
	}
	out = runCmd(t, loadgen, "-addr", addr, "-conns", "1", "-ops", "20000", "-mix", "loop")
	if !strings.Contains(out, "ops/s") {
		t.Fatalf("loop-mix loadgen output:\n%s", out)
	}

	// -direct runs the same loop against the in-process cache (no server).
	out = runCmd(t, loadgen, "-direct", "-ops", "20000")
	if !strings.Contains(out, "ops/s") {
		t.Fatalf("-direct loadgen output:\n%s", out)
	}

	if err := srv.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("server exit: %v\n%s", err, serverOut.String())
	}
	if got := serverOut.String(); !strings.Contains(got, "served") {
		t.Fatalf("server summary missing:\n%s", got)
	}
}

// TestKvrouterEndToEnd stands up two adaptcached nodes and a kvrouter in
// front of them, then drives load two ways: through the router (clients
// see one endpoint, the router owns placement and fanout) and directly
// at the fleet via kvloadgen -targets (per-target accounting).
func TestKvrouterEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	server := buildCmd(t, "adaptcached")
	routerBin := buildCmd(t, "kvrouter")
	loadgen := buildCmd(t, "kvloadgen")

	freeAddr := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	awaitUp := func(addr string, out *strings.Builder) {
		t.Helper()
		for i := 0; i < 100; i++ {
			c, err := net.Dial("tcp", addr)
			if err == nil {
				c.Close()
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("%s never came up:\n%s", addr, out.String())
	}

	var nodeAddrs []string
	for i := 0; i < 2; i++ {
		addr := freeAddr()
		var out strings.Builder
		srv := exec.Command(server, "-addr", addr, "-shards", "4", "-sets", "256", "-drain", "1s")
		srv.Stdout, srv.Stderr = &out, &out
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Process.Kill()
		awaitUp(addr, &out)
		nodeAddrs = append(nodeAddrs, addr)
	}

	routerAddr := freeAddr()
	var routerOut strings.Builder
	router := exec.Command(routerBin, "-addr", routerAddr, "-nodes", strings.Join(nodeAddrs, ","),
		"-probe-interval", "50ms", "-drain", "1s")
	router.Stdout, router.Stderr = &routerOut, &routerOut
	if err := router.Start(); err != nil {
		t.Fatal(err)
	}
	defer router.Process.Kill()
	awaitUp(routerAddr, &routerOut)

	// Through the router: one endpoint, the fleet behind it.
	out := runCmd(t, loadgen, "-addr", routerAddr, "-conns", "2", "-ops", "20000", "-mix", "zipf", "-multiget", "8")
	if !strings.Contains(out, "ops/s") || !strings.Contains(out, "hit ratio") {
		t.Fatalf("routed loadgen output:\n%s", out)
	}

	// Directly at the fleet: -targets breaks the report out per node.
	out = runCmd(t, loadgen, "-targets", strings.Join(nodeAddrs, ","), "-conns", "2", "-ops", "10000")
	for _, addr := range nodeAddrs {
		if !strings.Contains(out, "target "+addr+":") {
			t.Fatalf("per-target line for %s missing:\n%s", addr, out)
		}
	}

	if err := router.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	if err := router.Wait(); err != nil {
		t.Fatalf("router exit: %v\n%s", err, routerOut.String())
	}
	if got := routerOut.String(); !strings.Contains(got, "backend tallies") {
		t.Fatalf("router summary missing:\n%s", got)
	}
}

// TestKvrouterChaosEndToEnd runs a small fixed-seed partition drill
// through kvchaos's router topology: 3 in-process nodes behind a router,
// one killed mid-soak and later restarted. The binary checks the
// invariants (ejection fires, surviving keyspace stays available, no
// ambiguous-write replays, unacked tallies reconcile) itself and exits
// nonzero on violation.
func TestKvrouterChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "kvchaos")
	out := runCmd(t, bin, "-topology", "router", "-seed", "3", "-clients", "2", "-ops", "400", "-keys", "64",
		"-accept-error-rate", "0.1")
	if !strings.Contains(out, "kvchaos: PASS") {
		t.Fatalf("partition drill did not pass:\n%s", out)
	}
	for _, want := range []string{"dead-keyspace failures", "ejections: "} {
		if !strings.Contains(out, want) {
			t.Fatalf("drill summary missing %q:\n%s", want, out)
		}
	}
}

// TestKvrouterChaosReplicatedEndToEnd runs the same drill under the
// -replicas 2 contract: the outage becomes a partition the replica must
// absorb (zero failed ops), the healed node must be flushed before
// reintegration, and a small cas ledger survives a mid-ledger partition
// of its counter's primary with no increment double-applied. The
// regression half: disabling the flush with -no-reintegrate-flush must
// make the gate fail with a stale-read violation, proving the drill
// actually detects what the flush prevents.
func TestKvrouterChaosReplicatedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "kvchaos")
	args := []string{"-topology", "router", "-seed", "3", "-clients", "2", "-ops", "400", "-keys", "64",
		"-accept-error-rate", "0.1", "-replicas", "2", "-cas-workers", "2", "-cas-increments", "50"}

	out := runCmd(t, bin, args...)
	if !strings.Contains(out, "kvchaos: PASS") {
		t.Fatalf("replicated drill did not pass:\n%s", out)
	}
	for _, want := range []string{"0 dead-keyspace failures", "failover reads", "reintegration flushes",
		"partitioning the counter's primary", "cas ledger: 2 workers x 50 increments, 100 swaps acknowledged STORED"} {
		if !strings.Contains(out, want) {
			t.Fatalf("replicated summary missing %q:\n%s", want, out)
		}
	}

	cmd := exec.Command(bin, append(args, "-no-reintegrate-flush")...)
	tripOut, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("drill passed with flush-on-reintegrate disabled — the gate cannot detect stale reintegration:\n%s", tripOut)
	}
	if !strings.Contains(string(tripOut), "stale value resurrected") {
		t.Fatalf("flushless drill failed for the wrong reason:\n%s", tripOut)
	}
}

// TestKvchaosEndToEnd runs a small fixed-seed chaos soak: server behind a
// fault-injecting proxy, retrying clients, slow-loris probe. The binary
// checks the invariants (no lost acked writes, no escaped panics, no
// goroutine leaks) itself and exits nonzero on violation.
func TestKvchaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCmd(t, "kvchaos")
	out := runCmd(t, bin, "-seed", "3", "-clients", "2", "-ops", "600", "-keys", "48",
		"-slowloris", "1", "-read-timeout", "300ms")
	if !strings.Contains(out, "kvchaos: PASS") {
		t.Fatalf("chaos soak did not pass:\n%s", out)
	}
	for _, want := range []string{"acked sets", "accept retries", "hit ratio"} {
		if !strings.Contains(out, want) {
			t.Fatalf("soak summary missing %q:\n%s", want, out)
		}
	}
}
