package kvserver

// End-to-end gets/cas through the server, and the admission-reject
// accounting regression the service-time invariants depend on.

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/kvproto"
	"repro/internal/metrics"
)

// TestCasEndToEnd drives the full read-modify-write cycle over the wire
// and reconciles every layer's view of it: protocol outcomes, memcached
// stats lines (cmd_cas, cas_hits, cas_badval, cas_misses), Prometheus
// families, per-op latency histograms, and the cache's own counters.
func TestCasEndToEnd(t *testing.T) {
	srv, ln := start(t, Config{Cache: smallCache(), ReadTimeout: 5 * time.Second})
	defer srv.Shutdown(ln, time.Second)

	c, err := kvproto.DialTimeout(ln.Addr().String(), 2*time.Second, 5*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	if err := c.Set([]byte("k"), 7, 0, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	val, flags, id, ok, err := c.Gets([]byte("k"))
	if err != nil || !ok || flags != 7 || !bytes.Equal(val, []byte("v1")) || id == 0 {
		t.Fatalf("Gets = (%q, flags=%d, id=%d, ok=%v, err=%v)", val, flags, id, ok, err)
	}

	// Matching unique swaps; the consumed unique then conflicts; a fresh
	// gets shows exactly one applied swap with a new unique.
	if st, err := c.Cas([]byte("k"), 7, 0, id, []byte("v2")); err != nil || st != kvproto.CasStored {
		t.Fatalf("winning cas = (%v, %v)", st, err)
	}
	if st, err := c.Cas([]byte("k"), 7, 0, id, []byte("v3")); err != nil || st != kvproto.CasExists {
		t.Fatalf("replayed unique = (%v, %v), want CasExists", st, err)
	}
	val, _, id2, ok, err := c.Gets([]byte("k"))
	if err != nil || !ok || !bytes.Equal(val, []byte("v2")) || id2 == id {
		t.Fatalf("post-swap Gets = (%q, id=%d, ok=%v, err=%v), want v2 with fresh unique", val, id2, ok, err)
	}
	if st, err := c.Cas([]byte("missing"), 0, 0, 1, []byte("x")); err != nil || st != kvproto.CasNotFound {
		t.Fatalf("cas on absent key = (%v, %v)", st, err)
	}

	// A pipelined gets on the same connection returns the same unique the
	// synchronous one did — the set read lock reads (value, unique)
	// coherently.
	c.SendGets([]byte("k"))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, bid, ok, err := c.ReadGetsReply(); err != nil || !ok || bid != id2 {
		t.Fatalf("pipelined gets: id=%d ok=%v err=%v, want id %d", bid, ok, err, id2)
	}

	// Multi-key gets resolves through the batched run path: VALUE blocks
	// in request order with per-key uniques, misses elided.
	if err := c.Set([]byte("k2"), 1, 0, []byte("w")); err != nil {
		t.Fatal(err)
	}
	_, _, k2id, _, err := c.Gets([]byte("k2"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	raw.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Write([]byte("gets k k2 missing\r\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(raw)
	var got bytes.Buffer
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("multi-key gets truncated after %q: %v", got.String(), err)
		}
		got.WriteString(line)
		if line == "END\r\n" {
			break
		}
	}
	raw.Close()
	wantBurst := "VALUE k 7 2 " + strconv.FormatUint(id2, 10) + "\r\nv2\r\n" +
		"VALUE k2 1 1 " + strconv.FormatUint(k2id, 10) + "\r\nw\r\nEND\r\n"
	if got.String() != wantBurst {
		t.Fatalf("multi-key gets reply:\ngot:  %q\nwant: %q", got.String(), wantBurst)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{
		"cmd_cas":    "3",
		"cas_hits":   "1",
		"cas_badval": "1",
		"cas_misses": "1",
	} {
		if st[k] != want {
			t.Errorf("stats %s = %q, want %q", k, st[k], want)
		}
	}
	c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for srv.ConnsActive() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection never drained")
		}
		time.Sleep(10 * time.Millisecond)
	}

	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.Bytes()
	if err := metrics.Lint(body); err != nil {
		t.Fatalf("/metrics failed lint: %v\n%s", err, body)
	}
	out := string(body)
	for _, want := range []string{
		"kv_cas_hits_total 1",
		"kv_cas_conflicts_total 1",
		"kv_cas_misses_total 1",
		`kv_op_latency_seconds_count{op="gets"} 7`,
		`kv_op_latency_seconds_count{op="cas"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// Service-time invariants: get+gets histogram samples together cover
	// every cache get (gets records one sample per key looked up), and
	// the cas histogram covers every cas op.
	cst := srv.Cache().Stats()
	if n := srv.OpLatency("get").Count + srv.OpLatency("gets").Count; n != cst.Gets {
		t.Errorf("get+gets histogram count %d != cache gets %d", n, cst.Gets)
	}
	if n := srv.OpLatency("cas").Count; n != cst.CasOps() {
		t.Errorf("cas histogram count %d != cache cas ops %d", n, cst.CasOps())
	}
}

// TestOversizedRejectNotCountedAsOp is the accounting-honesty
// regression test: an oversized set (or cas) is refused at admission and
// never reaches the cache, so it must not appear in the per-op
// service-time histograms — the "histogram count == engine op count"
// invariant the soak harness asserts — and is tallied separately in
// kv_sets_rejected_total / the sets_rejected stats line instead.
func TestOversizedRejectNotCountedAsOp(t *testing.T) {
	srv, ln := start(t, Config{Cache: smallCache(), MaxItemSize: 16, ReadTimeout: 5 * time.Second})
	defer srv.Shutdown(ln, time.Second)

	c, err := kvproto.DialTimeout(ln.Addr().String(), 2*time.Second, 5*time.Second, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 5; i++ {
		if err := c.Set([]byte("k"+strconv.Itoa(i)), 0, 0, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	big := bytes.Repeat([]byte("x"), 17)
	var se *kvproto.ServerError
	if err := c.Set([]byte("big"), 0, 0, big); !errors.As(err, &se) {
		t.Fatalf("oversized set: %v, want SERVER_ERROR", err)
	}
	_, _, id, _, err := c.Gets([]byte("k0"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cas([]byte("k0"), 0, 0, id, big); !errors.As(err, &se) {
		t.Fatalf("oversized cas: %v, want SERVER_ERROR", err)
	}

	cst := srv.Cache().Stats()
	if n := srv.OpLatency("set").Count; n != cst.Stores {
		t.Errorf("set histogram count %d != cache stores %d (reject leaked into the histogram)", n, cst.Stores)
	}
	if n := srv.OpLatency("cas").Count; n != cst.CasOps() {
		t.Errorf("cas histogram count %d != cache cas ops %d (reject leaked into the histogram)", n, cst.CasOps())
	}
	if got := srv.SetsRejected(); got != 2 {
		t.Errorf("SetsRejected = %d, want 2", got)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["sets_rejected"] != "2" {
		t.Errorf("stats sets_rejected = %q, want 2", st["sets_rejected"])
	}
	// The stream survived both refusals: the boundary-sized value stores.
	if err := c.Set([]byte("edge"), 0, 0, bytes.Repeat([]byte("y"), 16)); err != nil {
		t.Fatalf("boundary set after rejects: %v", err)
	}
}
