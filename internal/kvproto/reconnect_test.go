package kvproto

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// flakyServer answers every request ReconnectClient issues with a
// well-formed reply (END for get/gets/stats, NOOP, OK, STORED, DELETED)
// but kills every Nth connection after its first request, exercising the
// redial path. requests counts every request the server parsed. It
// serves until the listener closes.
func flakyServer(t *testing.T, killEvery int) (addr string, accepted, requests *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted, requests = new(atomic.Int64), new(atomic.Int64)
	replies := map[Op]string{
		OpGet: "END\r\n", OpGets: "END\r\n", OpStats: "END\r\n",
		OpNoop: "NOOP\r\n", OpFlushAll: "OK\r\n",
		OpSet: "STORED\r\n", OpCas: "STORED\r\n", OpDelete: "DELETED\r\n",
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n := accepted.Add(1)
			go func(conn net.Conn, kill bool) {
				defer conn.Close()
				rd := NewReader(conn)
				var req Request
				for i := 0; ; i++ {
					conn.SetReadDeadline(time.Now().Add(5 * time.Second))
					if err := rd.Next(&req); err != nil {
						return
					}
					requests.Add(1)
					if kill && i == 0 {
						return // drop without replying: ambiguous for the client
					}
					reply, ok := replies[req.Op]
					if !ok {
						return
					}
					conn.Write([]byte(reply))
				}
			}(conn, killEvery > 0 && int(n)%killEvery == 1)
		}
	}()
	return ln.Addr().String(), accepted, requests
}

// TestReconnectGetRetries: the first connection dies mid-operation; the
// client must redial and complete every idempotent operation
// transparently.
func TestReconnectGetRetries(t *testing.T) {
	ops := []struct {
		name string
		do   func(rc *ReconnectClient) error
	}{
		{"get", func(rc *ReconnectClient) error {
			_, ok, err := rc.Get([]byte("k"))
			if err == nil && ok {
				return errors.New("hit on an empty server")
			}
			return err
		}},
		{"gets", func(rc *ReconnectClient) error {
			_, _, _, ok, err := rc.Gets([]byte("k"))
			if err == nil && ok {
				return errors.New("hit on an empty server")
			}
			return err
		}},
		{"multiget", func(rc *ReconnectClient) error {
			return rc.MultiGet([][]byte{[]byte("a"), []byte("b")}, func(int, uint32, []byte) {})
		}},
		{"noop", (*ReconnectClient).Noop},
		{"flush_all", (*ReconnectClient).FlushAll},
		{"stats", func(rc *ReconnectClient) error {
			_, err := rc.Stats()
			return err
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			addr, accepted, _ := flakyServer(t, 2) // kills connections 1, 3, 5...
			rc := NewReconnect(addr, ReconnectConfig{
				ReadTimeout: 2 * time.Second,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  10 * time.Millisecond,
				Seed:        9,
			})
			defer rc.Close()

			if err := op.do(rc); err != nil {
				t.Fatalf("%s through flaky server: %v", op.name, err)
			}
			if rc.Retries == 0 || rc.Redials < 2 {
				t.Fatalf("no retry happened: retries=%d redials=%d", rc.Retries, rc.Redials)
			}
			if accepted.Load() < 2 {
				t.Fatalf("server saw %d connections", accepted.Load())
			}
		})
	}
}

// TestReconnectSetAmbiguityNotReplayed: when the connection dies after a
// set, cas or delete was flushed, the client must surface ErrUnacked
// instead of replaying — the server sees the request exactly once — and
// the next operation must transparently use a fresh connection.
func TestReconnectSetAmbiguityNotReplayed(t *testing.T) {
	ops := []struct {
		name string
		do   func(rc *ReconnectClient) error
	}{
		{"set", func(rc *ReconnectClient) error {
			return rc.Set([]byte("k"), 0, 0, []byte("v"))
		}},
		{"cas", func(rc *ReconnectClient) error {
			_, err := rc.Cas([]byte("k"), 0, 0, 7, []byte("v"))
			return err
		}},
		{"delete", func(rc *ReconnectClient) error {
			_, err := rc.Delete([]byte("k"))
			return err
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			addr, accepted, requests := flakyServer(t, 2)
			rc := NewReconnect(addr, ReconnectConfig{
				ReadTimeout: 2 * time.Second,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  10 * time.Millisecond,
				Seed:        10,
			})
			defer rc.Close()

			err := op.do(rc)
			if !errors.Is(err, ErrUnacked) {
				t.Fatalf("want ErrUnacked, got %v", err)
			}
			if want := "(" + op.name + ")"; !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name the operation %s", err, want)
			}
			if n := requests.Load(); n != 1 {
				t.Fatalf("server saw %d requests, want exactly 1 (ambiguous write replayed)", n)
			}
			before := accepted.Load()
			if err := op.do(rc); err != nil {
				t.Fatalf("%s after reconnect: %v", op.name, err)
			}
			if accepted.Load() <= before {
				t.Fatalf("second %s did not use a fresh connection", op.name)
			}
		})
	}
}

// TestReconnectBusyRetried: a busy shed is not an acknowledgment — the
// client must back off and retry even for a set.
func TestReconnectBusyRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var n atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if n.Add(1) <= 2 {
				conn.Write(BusyLine)
				conn.Close()
				continue
			}
			go func(conn net.Conn) {
				defer conn.Close()
				rd := NewReader(conn)
				var req Request
				for {
					conn.SetReadDeadline(time.Now().Add(5 * time.Second))
					if err := rd.Next(&req); err != nil {
						return
					}
					if req.Op == OpSet {
						conn.Write([]byte("STORED\r\n"))
					} else {
						return
					}
				}
			}(conn)
		}
	}()

	rc := NewReconnect(ln.Addr().String(), ReconnectConfig{
		ReadTimeout: 2 * time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Seed:        11,
	})
	defer rc.Close()
	if err := rc.Set([]byte("k"), 0, 0, []byte("v")); err != nil {
		t.Fatalf("set through busy sheds: %v", err)
	}
	if n.Load() < 3 {
		t.Fatalf("server saw %d connections, want >= 3", n.Load())
	}
	if rc.Retries < 2 {
		t.Fatalf("retries=%d, want >= 2", rc.Retries)
	}
}

// TestReconnectExhaustion: a dead address fails after MaxAttempts with
// the last error wrapped, not an infinite loop.
func TestReconnectExhaustion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore

	rc := NewReconnect(addr, ReconnectConfig{
		DialTimeout: 200 * time.Millisecond,
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        12,
	})
	start := time.Now()
	if _, _, err := rc.Get([]byte("k")); err == nil {
		t.Fatal("get against dead address succeeded")
	}
	if rc.Retries != 2 {
		t.Fatalf("retries=%d, want 2 (MaxAttempts 3)", rc.Retries)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("exhaustion took too long")
	}
}

// TestBackoffDeterminismAndCap: the jittered schedule is reproducible for
// a seed and never exceeds MaxBackoff.
func TestBackoffDeterminismAndCap(t *testing.T) {
	sched := func(seed uint64) []time.Duration {
		rc := NewReconnect("unused", ReconnectConfig{
			BaseBackoff: time.Millisecond,
			MaxBackoff:  8 * time.Millisecond,
			Seed:        seed,
		})
		var out []time.Duration
		for n := 0; n < 8; n++ {
			start := time.Now()
			rc.backoff(n)
			out = append(out, time.Since(start))
		}
		return out
	}
	a, b := sched(21), sched(21)
	for i := range a {
		if a[i] > 8*time.Millisecond+50*time.Millisecond {
			t.Fatalf("backoff(%d) = %v exceeds cap (plus sleep slack)", i, a[i])
		}
		// Same seed must sleep within scheduling slack of the same target.
		diff := a[i] - b[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > 30*time.Millisecond {
			t.Fatalf("backoff(%d) not reproducible: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestReconnectCountersWired: the optional shared ReconnectCounters must
// mirror every outcome the client tallies — redials and retries on a
// flaky peer, Unacked on an ambiguous set, and Exhausted when an
// unreachable address runs the client out of attempts. Nil counter
// fields must be ignored.
func TestReconnectCountersWired(t *testing.T) {
	var redials, retries, unacked, exhausted metrics.Counter
	ctrs := &ReconnectCounters{
		Redials: &redials, Retries: &retries,
		Unacked: &unacked, Exhausted: &exhausted,
	}

	addr, _, _ := flakyServer(t, 2)
	rc := NewReconnect(addr, ReconnectConfig{
		ReadTimeout: 2 * time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Seed:        11,
		Counters:    ctrs,
	})
	if _, _, err := rc.Get([]byte("k")); err != nil {
		t.Fatalf("get through flaky server: %v", err)
	}
	if redials.Load() != rc.Redials || redials.Load() < 2 {
		t.Errorf("shared redials %d, client %d (want equal, >= 2)", redials.Load(), rc.Redials)
	}
	if retries.Load() != rc.Retries || retries.Load() == 0 {
		t.Errorf("shared retries %d, client %d (want equal, > 0)", retries.Load(), rc.Retries)
	}
	// Force a fresh dial so the set lands on the next odd (doomed)
	// connection and becomes ambiguous.
	rc.drop()
	if err := rc.Set([]byte("k"), 0, 0, []byte("v")); !errors.Is(err, ErrUnacked) {
		t.Fatalf("want ErrUnacked, got %v", err)
	}
	if unacked.Load() != 1 || rc.Unacked != 1 {
		t.Errorf("unacked: shared %d, client %d, want 1", unacked.Load(), rc.Unacked)
	}
	rc.Close()

	// Unreachable peer: the same shared counters also see exhaustion.
	dead := NewReconnect("127.0.0.1:1", ReconnectConfig{
		DialTimeout: 100 * time.Millisecond,
		MaxAttempts: 2,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
		Seed:        12,
		Counters:    ctrs,
	})
	if _, _, err := dead.Get([]byte("k")); err == nil {
		t.Fatal("get against unreachable address succeeded")
	}
	if exhausted.Load() != 1 || dead.Exhausted != 1 {
		t.Errorf("exhausted: shared %d, client %d, want 1", exhausted.Load(), dead.Exhausted)
	}

	// Partially wired counters must not panic.
	partial := NewReconnect(addr, ReconnectConfig{
		ReadTimeout: 2 * time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Counters:    &ReconnectCounters{Retries: &retries},
	})
	defer partial.Close()
	if _, _, err := partial.Get([]byte("k")); err != nil {
		t.Fatalf("get with partial counters: %v", err)
	}
}

// setRunServer is a scripted peer for pipelined set runs. script runs
// once per accepted connection, numbered from 1, and returns false to
// close it. applied counts each set key read on a connection the
// script let through to applySets.
type setRunServer struct {
	addr     string
	accepted atomic.Int64
	mu       sync.Mutex
	applied  map[string]int
}

func startSetRunServer(t *testing.T, script func(s *setRunServer, conn net.Conn, rd *Reader, n int64)) *setRunServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	s := &setRunServer{addr: ln.Addr().String(), applied: make(map[string]int)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			n := s.accepted.Add(1)
			go func() {
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				script(s, conn, NewReader(conn), n)
			}()
		}
	}()
	return s
}

// readSets reads n requests, recording every set's key.
func (s *setRunServer) readSets(rd *Reader, n int) bool {
	var req Request
	for i := 0; i < n; i++ {
		if rd.Next(&req) != nil || req.Op != OpSet {
			return false
		}
		s.mu.Lock()
		s.applied[string(req.Key)]++
		s.mu.Unlock()
	}
	return true
}

// serveSets answers every set STORED until the stream ends.
func (s *setRunServer) serveSets(conn net.Conn, rd *Reader) {
	for s.readSets(rd, 1) {
		conn.Write([]byte("STORED\r\n"))
	}
}

func (s *setRunServer) count(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied[key]
}

func runOf(n int) []SetReq {
	sets := make([]SetReq, n)
	for i := range sets {
		sets[i] = SetReq{Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v"), Exptime: 60}
	}
	return sets
}

// TestSetRunStreamDiesMidPipeline: the peer reads a whole pipelined run
// of N sets, answers k of them and closes. The first k sets keep their
// replies; the other N-k may or may not have been applied, so each
// fails as ErrUnacked naming set, is counted once, and is never
// replayed. The next operation redials.
func TestSetRunStreamDiesMidPipeline(t *testing.T) {
	const n, k = 6, 2
	srv := startSetRunServer(t, func(s *setRunServer, conn net.Conn, rd *Reader, conns int64) {
		if conns > 1 {
			s.serveSets(conn, rd)
			return
		}
		if s.readSets(rd, n) {
			conn.Write([]byte(strings.Repeat("STORED\r\n", k)))
		}
	})
	var unacked metrics.Counter
	rc := NewReconnect(srv.addr, ReconnectConfig{
		ReadTimeout: 2 * time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Seed:        13,
		Counters:    &ReconnectCounters{Unacked: &unacked},
	})
	defer rc.Close()

	sets, errs := runOf(n), make([]error, n)
	if err := rc.SetRun(sets, errs); !errors.Is(err, ErrUnacked) {
		t.Fatalf("SetRun = %v, want ErrUnacked", err)
	}
	for i, err := range errs {
		switch {
		case i < k && err != nil:
			t.Errorf("set %d (acked before the stream died): %v", i, err)
		case i >= k && !errors.Is(err, ErrUnacked):
			t.Errorf("set %d: %v, want ErrUnacked", i, err)
		case i >= k && !strings.Contains(err.Error(), "(set)"):
			t.Errorf("set %d: error %q does not name set", i, err)
		}
	}
	if rc.Unacked != n-k || unacked.Load() != n-k {
		t.Errorf("unacked: client %d, shared %d, want %d", rc.Unacked, unacked.Load(), n-k)
	}
	if err := rc.Set([]byte("after"), 0, 0, []byte("v")); err != nil {
		t.Fatalf("set after the dead pipeline: %v", err)
	}
	if got := srv.accepted.Load(); got != 2 {
		t.Errorf("server accepted %d connections, want 2 (one redial)", got)
	}
	for _, st := range sets {
		if c := srv.count(string(st.Key)); c != 1 {
			t.Errorf("server saw set %s %d times, want once (never replayed)", st.Key, c)
		}
	}
}

// TestSetRunBusyShedRetriesWholeRun: a busy shed answers before any
// processing, so the whole run is retried on a fresh connection, once,
// and the server applies every set exactly once.
func TestSetRunBusyShedRetriesWholeRun(t *testing.T) {
	const n = 5
	srv := startSetRunServer(t, func(s *setRunServer, conn net.Conn, rd *Reader, conns int64) {
		if conns == 1 {
			conn.Write(BusyLine)
			return
		}
		s.serveSets(conn, rd)
	})
	rc := NewReconnect(srv.addr, ReconnectConfig{
		ReadTimeout: 2 * time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
		Seed:        14,
	})
	defer rc.Close()

	sets, errs := runOf(n), make([]error, n)
	if err := rc.SetRun(sets, errs); err != nil {
		t.Fatalf("SetRun through a busy shed: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("set %d: %v", i, err)
		}
	}
	if rc.Retries != 1 || rc.Unacked != 0 {
		t.Errorf("retries=%d unacked=%d, want 1 and 0", rc.Retries, rc.Unacked)
	}
	for _, st := range sets {
		if c := srv.count(string(st.Key)); c != 1 {
			t.Errorf("server applied set %s %d times, want exactly once", st.Key, c)
		}
	}
}
