package kvproto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
)

func reqs(t *testing.T, input string) ([]Request, []error) {
	t.Helper()
	rd := NewReader(strings.NewReader(input))
	var out []Request
	var errs []error
	for {
		var req Request
		err := rd.Next(&req)
		if err == io.EOF {
			return out, errs
		}
		if err != nil {
			errs = append(errs, err)
			var ce *ClientError
			if errors.As(err, &ce) {
				continue // recoverable: stream resynchronized
			}
			return out, errs
		}
		// Copy aliased slices before the next parse reuses the buffers.
		req.Key = append([]byte(nil), req.Key...)
		req.Value = append([]byte(nil), req.Value...)
		if req.Keys != nil {
			keys := make([][]byte, len(req.Keys))
			for i, k := range req.Keys {
				keys[i] = append([]byte(nil), k...)
			}
			req.Keys = keys
		}
		out = append(out, req)
	}
}

func TestReaderParsesCommands(t *testing.T) {
	got, errs := reqs(t, "get foo\r\n"+
		"set bar 7 0 5\r\nhello\r\n"+
		"delete foo\r\n"+
		"stats\r\n"+
		"GET foo\r\n"+ // case-insensitive
		"flush_all\r\n"+
		"noop\r\n"+
		"quit\r\n")
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	want := []Request{
		{Op: OpGet, Key: []byte("foo")},
		{Op: OpSet, Key: []byte("bar"), Flags: 7, Value: []byte("hello")},
		{Op: OpDelete, Key: []byte("foo")},
		{Op: OpStats},
		{Op: OpGet, Key: []byte("foo")},
		{Op: OpFlushAll},
		{Op: OpNoop},
		{Op: OpQuit},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d requests, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Op != w.Op || !bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Value, w.Value) || g.Flags != w.Flags {
			t.Errorf("request %d = %+v, want %+v", i, g, w)
		}
	}
}

// TestReaderParsesMultiGet: "get k1 k2 ..." yields one OpGet carrying
// every key in order, with Key aliasing the first for single-key callers.
func TestReaderParsesMultiGet(t *testing.T) {
	got, errs := reqs(t, "get a\r\nget a b c\r\nget x y\r\n")
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	want := [][]string{{"a"}, {"a", "b", "c"}, {"x", "y"}}
	if len(got) != len(want) {
		t.Fatalf("parsed %d requests, want %d", len(got), len(want))
	}
	for i, keys := range want {
		g := got[i]
		if g.Op != OpGet || len(g.Keys) != len(keys) {
			t.Fatalf("request %d = %+v, want %d-key get", i, g, len(keys))
		}
		for j, k := range keys {
			if string(g.Keys[j]) != k {
				t.Errorf("request %d key %d = %q, want %q", i, j, g.Keys[j], k)
			}
		}
		if !bytes.Equal(g.Key, g.Keys[0]) {
			t.Errorf("request %d Key %q != Keys[0] %q", i, g.Key, g.Keys[0])
		}
	}
	// Exactly MaxGetKeys keys parses; one more is rejected (covered in
	// TestReaderRecoverableErrors).
	max := "get" + strings.Repeat(" k", MaxGetKeys) + "\r\n"
	got, errs = reqs(t, max)
	if len(errs) != 0 || len(got) != 1 || len(got[0].Keys) != MaxGetKeys {
		t.Fatalf("MaxGetKeys get: requests=%d errs=%v", len(got), errs)
	}
}

func TestReaderBareLFAndEmptyValue(t *testing.T) {
	got, errs := reqs(t, "set k 0 0 0\n\r\nget k\n")
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(got) != 2 || got[0].Op != OpSet || len(got[0].Value) != 0 || got[1].Op != OpGet {
		t.Fatalf("parsed %+v", got)
	}
}

// TestReaderRecoverableErrors: each violation must yield a *ClientError
// and leave the stream positioned at the next command.
func TestReaderRecoverableErrors(t *testing.T) {
	cases := []struct {
		name  string
		input string
	}{
		{"unknown command", "frobnicate now\r\n"},
		{"get without key", "get \r\n"},
		{"get with empty middle key", "get a  b\r\n"},
		{"get too many keys", "get" + strings.Repeat(" k", MaxGetKeys+1) + "\r\n"},
		{"key too long", "get " + strings.Repeat("k", MaxKeyBytes+1) + "\r\n"},
		{"control byte in key", "get a\x01b\r\n"},
		{"set bad count", "set k 0 0 nope\r\n"},
		{"set missing fields", "set k 0 5\r\n"},
		{"set huge count", "set k 0 0 99999999999999999999999\r\n"},
		{"line too long", strings.Repeat("x", 5000) + "\r\n"},
		{"flush_all with delay", "flush_all 30\r\n"},
		{"flush_all line too long", "flush_all " + strings.Repeat("x", 2000) + "\r\n"},
		{"set oversized value", "set k 0 0 1048577\r\n" + strings.Repeat("v", 1048577) + "\r\n"},
		{"set bad key drains chunk", "set a\x02b 0 0 3\r\nxyz\r\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, errs := reqs(t, tc.input+"get sentinel\r\n")
			if len(errs) != 1 {
				t.Fatalf("errors = %v, want exactly one", errs)
			}
			var ce *ClientError
			if !errors.As(errs[0], &ce) {
				t.Fatalf("error %v is not a *ClientError", errs[0])
			}
			if len(got) != 1 || got[0].Op != OpGet || string(got[0].Key) != "sentinel" {
				t.Fatalf("stream not resynchronized: parsed %+v", got)
			}
		})
	}
}

// TestReaderOversizeDrainNeverDesyncs: a set announcing more bytes than
// MaxValueBytes either drains its chunk and rejects it recoverably, so
// the next command parses, or ends the stream as corrupt. Sizes near the
// top of uint64 once overflowed the drain count: one ended the stream
// with a bufio error, the other drained one byte and ate the next
// command.
func TestReaderOversizeDrainNeverDesyncs(t *testing.T) {
	for _, tc := range []struct {
		name, input string
	}{
		{"past int64", "set k 0 0 9223372036854775808\r\n"},
		{"max uint64", "set k 0 0 18446744073709551615\r\n"},
		{"one past the drain bound", "set k 0 0 2147483646\r\n"},
		{"drainable oversize", "set k 0 0 1048577\r\n" + strings.Repeat("v", 1048577) + "\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			input := tc.input + "get a\r\n"
			outs, err := parseAll(t, strings.NewReader(input), len(input))
			recovered := len(outs) == 2 && outs[0].ClientErr != "" &&
				outs[1].Op == OpGet && outs[1].Key == "a" && outs[1].ClientErr == ""
			corrupt := len(outs) == 0 && err == ErrCorrupt
			if !recovered && !corrupt {
				t.Fatalf("desynchronized: outcomes %+v, then %v", outs, err)
			}
		})
	}
}

func TestReaderFatalErrors(t *testing.T) {
	var req Request
	rd := NewReader(strings.NewReader("set k 0 0 3\r\nabcXY")) // chunk not CRLF-terminated
	if err := rd.Next(&req); err != ErrCorrupt {
		t.Errorf("bad chunk terminator: err = %v, want ErrCorrupt", err)
	}
	rd = NewReader(strings.NewReader("set k 0 0 10\r\nshort"))
	if err := rd.Next(&req); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated chunk: err = %v, want ErrUnexpectedEOF", err)
	}
	rd = NewReader(strings.NewReader("get half"))
	if err := rd.Next(&req); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated line: err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestParseUint(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true}, {"42", 42, true},
		{"18446744073709551615", 18446744073709551615, true},
		{"18446744073709551616", 0, false}, // overflow
		{"", 0, false}, {"-1", 0, false}, {"1x", 0, false},
		{"999999999999999999999", 0, false},
	}
	for _, tc := range cases {
		if got, ok := parseUint([]byte(tc.in)); got != tc.want || ok != tc.ok {
			t.Errorf("parseUint(%q) = (%d, %v), want (%d, %v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestClientServerRoundTrip runs the Client against a handwritten server
// loop over a real loopback socket: the two halves of the package must
// agree on the wire format.
func TestClientServerRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	store := map[string]string{}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rd := NewReader(conn)
		w := bufio.NewWriter(conn)
		var req Request
		for {
			switch err := rd.Next(&req); {
			case err == nil:
			case errors.As(err, new(*ClientError)):
				WriteClientError(w, "bad request")
				w.Flush()
				continue
			default:
				return
			}
			switch req.Op {
			case OpGet:
				for _, k := range req.Keys {
					if v, ok := store[string(k)]; ok {
						WriteValue(w, k, 0, []byte(v))
					}
				}
				WriteEnd(w)
			case OpSet:
				store[string(req.Key)] = string(req.Value)
				WriteStored(w)
			case OpDelete:
				if _, ok := store[string(req.Key)]; ok {
					delete(store, string(req.Key))
					WriteDeleted(w)
				} else {
					WriteNotFound(w)
				}
			case OpStats:
				WriteStat(w, "items", uint64(len(store)))
				WriteStatStr(w, "version", "test")
				WriteEnd(w)
			case OpFlushAll:
				clear(store)
				WriteOk(w)
			case OpQuit:
				w.Flush()
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, ok, err := c.Get([]byte("missing")); err != nil || ok {
		t.Fatalf("Get(missing) = (_, %v, %v), want miss", ok, err)
	}
	if err := c.Set([]byte("k"), 3, 0, []byte("value-1")); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if v, ok, err := c.Get([]byte("k")); err != nil || !ok || string(v) != "value-1" {
		t.Fatalf("Get(k) = (%q, %v, %v), want value-1", v, ok, err)
	}
	if err := c.Set([]byte("empty"), 0, 0, nil); err != nil {
		t.Fatalf("Set(empty): %v", err)
	}
	if v, ok, err := c.Get([]byte("empty")); err != nil || !ok || len(v) != 0 {
		t.Fatalf("Get(empty) = (%q, %v, %v), want empty hit", v, ok, err)
	}
	st, err := c.Stats()
	if err != nil || st["items"] != "2" || st["version"] != "test" {
		t.Fatalf("Stats = (%v, %v)", st, err)
	}
	// Multiget: a hit, a miss, and a second hit in one round trip; hits
	// arrive in request order with the right indices.
	mkeys := [][]byte{[]byte("k"), []byte("missing"), []byte("empty")}
	var hits []int
	err = c.MultiGet(mkeys, func(i int, flags uint32, val []byte) {
		hits = append(hits, i)
		switch i {
		case 0:
			if string(val) != "value-1" {
				t.Errorf("MultiGet k = %q", val)
			}
		case 2:
			if len(val) != 0 {
				t.Errorf("MultiGet empty = %q", val)
			}
		default:
			t.Errorf("MultiGet hit on unexpected index %d", i)
		}
	})
	if err != nil || len(hits) != 2 || hits[0] != 0 || hits[1] != 2 {
		t.Fatalf("MultiGet = (hits %v, %v), want indices [0 2]", hits, err)
	}
	if ok, err := c.Delete([]byte("k")); err != nil || !ok {
		t.Fatalf("Delete(k) = (%v, %v), want hit", ok, err)
	}
	if ok, err := c.Delete([]byte("k")); err != nil || ok {
		t.Fatalf("second Delete(k) = (%v, %v), want miss", ok, err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if _, ok, err := c.Get([]byte("empty")); err != nil || ok {
		t.Fatalf("Get(empty) after flush = (_, %v, %v), want miss", ok, err)
	}
}

// TestReaderStoreKeySurvivesValueRead: a set or cas whose data chunk
// arrives in a later read than its header must keep its key. The value
// read refills the line buffer the key was parsed from, so a key left
// aliasing that buffer came back as bytes of the value.
func TestReaderStoreKeySurvivesValueRead(t *testing.T) {
	for _, header := range []string{"set mykey 0 0 5\r\n", "cas mykey 0 0 5 9\r\n"} {
		rd := NewReader(io.MultiReader(
			strings.NewReader(header),
			strings.NewReader("hello\r\n"),
		))
		var req Request
		if err := rd.Next(&req); err != nil {
			t.Fatalf("%q: %v", header, err)
		}
		if string(req.Key) != "mykey" || string(req.Value) != "hello" {
			t.Errorf("%q: parsed key %q value %q, want mykey/hello", header, req.Key, req.Value)
		}
	}
}

// TestReaderReuseNoAllocs: steady-state parsing of same-sized requests
// must not allocate once buffers are warm.
func TestReaderReuseNoAllocs(t *testing.T) {
	input := []byte("set key1 0 0 8\r\nvvvvvvvv\r\nget key1\r\ndelete key1\r\n")
	r := bytes.NewReader(input)
	rd := NewReader(r)
	var req Request
	// Warm the value buffer.
	for i := 0; i < 3; i++ {
		r.Reset(input)
		rd.Reset(r)
		for rd.Next(&req) == nil {
		}
	}
	if avg := testing.AllocsPerRun(100, func() {
		r.Reset(input)
		rd.Reset(r)
		for {
			if err := rd.Next(&req); err != nil {
				if err != io.EOF {
					t.Fatalf("parse error: %v", err)
				}
				return
			}
		}
	}); avg != 0 {
		t.Errorf("steady-state parse: %v allocs per pass, want 0", avg)
	}
}
