package kvserver

// Tests for the batched-get dispatch and vectored reply paths: pipelined
// bursts mixing single gets, multi-key gets, sets, deletes, and protocol
// errors must reply byte-exactly in request order; large values must go
// out vectored without disturbing that order; the multiget and
// batched-flush metrics must account every key.

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/kvproto"
)

// TestPipelinedOrderingMixedBurst writes one TCP segment interleaving
// every op kind — including a multi-key get spanning both shards, a
// value large enough to take the vectored path, and a recoverable
// protocol error mid-burst — and asserts the reply stream is byte-exact:
// same ops, same order, no coalescing artifacts.
func TestPipelinedOrderingMixedBurst(t *testing.T) {
	srv, ln := start(t, Config{Cache: smallCache(), ReadTimeout: 30 * time.Second})
	defer srv.Shutdown(ln, time.Second)

	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	big := strings.Repeat("B", 8192) // >= vectorMin: vectored reply path
	burst := "set a 1 0 2\r\naa\r\n" +
		"set b 2 0 2\r\nbb\r\n" +
		"set big 3 0 8192\r\n" + big + "\r\n" +
		"get a\r\n" +
		"get a b nope\r\n" + // multiget: two hits + a miss, one END
		"get nope\r\n" +
		"frobnicate\r\n" + // recoverable error inside a get run
		"get big a\r\n" + // vectored value then buffered value, one END
		"delete a\r\n" +
		"get a b\r\n" + // a is gone now: order proves run flushed first
		"get b\r\nquit\r\n"
	want := "STORED\r\n" +
		"STORED\r\n" +
		"STORED\r\n" +
		"VALUE a 1 2\r\naa\r\nEND\r\n" +
		"VALUE a 1 2\r\naa\r\nVALUE b 2 2\r\nbb\r\nEND\r\n" +
		"END\r\n" +
		"CLIENT_ERROR unknown command\r\n" +
		"VALUE big 3 8192\r\n" + big + "\r\nVALUE a 1 2\r\naa\r\nEND\r\n" +
		"DELETED\r\n" +
		"VALUE b 2 2\r\nbb\r\nEND\r\n" +
		"VALUE b 2 2\r\nbb\r\nEND\r\n"

	vecBefore := srv.NetCounters().VectoredWrites
	if _, err := conn.Write([]byte(burst)); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(conn) // quit closes the stream after the last reply
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte(want)) {
		t.Fatalf("reply stream out of order or corrupted:\ngot  %q\nwant %q", got, want)
	}
	if d := srv.NetCounters().VectoredWrites - vecBefore; d != 1 {
		t.Errorf("vectored writes during burst = %d, want exactly 1 (the 8KB value)", d)
	}
	// The get latency histogram must count keys, not requests: 10 keys
	// were looked up (a; a,b,nope; nope; big,a; a,b; b) so the cache's
	// own op counter and the histogram agree.
	if gets := srv.OpLatency("get").Count; gets != 10 {
		t.Errorf("get latency samples = %d, want 10 (one per key)", gets)
	}
	if cacheGets := srv.Cache().Stats().Gets; cacheGets != 10 {
		t.Errorf("cache gets = %d, want 10", cacheGets)
	}
}

// TestMultigetMetrics drives the typed client's MultiGet and checks the
// serving-path instruments: per-key latency samples, the batched-ops
// histogram, and the vectored-write counter appearing in both the stats
// command and the Prometheus exposition.
func TestMultigetMetrics(t *testing.T) {
	srv, ln := start(t, Config{Cache: smallCache()})
	defer srv.Shutdown(ln, time.Second)

	c, err := kvproto.DialTimeout(ln.Addr().String(), 2*time.Second, 2*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([][]byte, 8)
	for i := range keys {
		k := []byte{'k', byte('0' + i)}
		keys[i] = k
		if i%2 == 0 {
			if err := c.Set(k, uint32(i), 0, []byte("v")); err != nil {
				t.Fatalf("set %d: %v", i, err)
			}
		}
	}
	hits := 0
	if err := c.MultiGet(keys, func(i int, flags uint32, val []byte) {
		hits++
		if i%2 != 0 || string(val) != "v" || flags != uint32(i) {
			t.Errorf("unexpected hit i=%d flags=%d val=%q", i, flags, val)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if hits != 4 {
		t.Fatalf("multiget hits = %d, want 4", hits)
	}
	if gets := srv.OpLatency("get").Count; gets != 8 {
		t.Errorf("get latency samples = %d, want 8 (one per multiget key)", gets)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st["vectored_writes"]; !ok {
		t.Error(`stats reply missing "vectored_writes"`)
	}
	if st["cmd_get"] != "8" {
		t.Errorf("stats cmd_get = %q, want 8", st["cmd_get"])
	}

	var expo bytes.Buffer
	if err := srv.WriteMetrics(&expo); err != nil {
		t.Fatal(err)
	}
	out := expo.String()
	for _, fam := range []string{
		`adaptivekv_ops_total{op="get"} 8`,
		"kv_vectored_writes_total 0",
		"kv_batched_ops_per_flush_count",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("exposition missing %q", fam)
		}
	}
	// Each flush coalesced at least one replying op; the histogram's
	// sample count must match the number of explicit flushes with work.
	if h := srv.m.batchedOps; h.Count() == 0 {
		t.Error("batched_ops_per_flush recorded no samples")
	}
}
