package kvproto

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// scriptServer accepts exactly one connection, optionally reads request
// bytes, writes a scripted reply, then runs the final action (close or
// hang). It returns the listener's address.
func scriptServer(t *testing.T, readRequest bool, reply string, hang bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if readRequest {
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 1024)
			conn.Read(buf)
		}
		if reply != "" {
			conn.Write([]byte(reply))
		}
		if hang {
			time.Sleep(10 * time.Second) // outlives any test deadline
		}
		conn.Close()
	}()
	return ln.Addr().String()
}

// TestGetMidPipelineEOF: the peer dies mid-value — after the VALUE header
// but before the payload completes. The client must fail with a non-
// recoverable truncation error rather than block or misparse.
func TestGetMidPipelineEOF(t *testing.T) {
	addr := scriptServer(t, true, "VALUE k 0 10\r\nabc", false)
	c, err := DialTimeout(addr, 2*time.Second, 2*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseNow()

	_, _, err = c.Get([]byte("k"))
	if err == nil {
		t.Fatal("truncated value accepted")
	}
	if err != io.ErrUnexpectedEOF && err != io.EOF {
		t.Fatalf("want EOF-class error, got %v", err)
	}
	if Recoverable(err) {
		t.Fatalf("truncation classified recoverable: %v", err)
	}
}

// TestPipelinedRepliesEOF: two gets are pipelined, the peer answers one
// and closes. Reply one parses; reply two is a clean dead-stream error.
func TestPipelinedRepliesEOF(t *testing.T) {
	addr := scriptServer(t, true, "END\r\n", false)
	c, err := DialTimeout(addr, 2*time.Second, 2*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseNow()

	c.SendGet([]byte("a"))
	c.SendGet([]byte("b"))
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.ReadGetReply(); err != nil || ok {
		t.Fatalf("first reply: ok=%v err=%v", ok, err)
	}
	_, _, err = c.ReadGetReply()
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		t.Fatalf("second reply: want EOF, got %v", err)
	}
	if Recoverable(err) {
		t.Fatalf("mid-pipeline EOF classified recoverable: %v", err)
	}
}

// TestReadDeadlineExpiry: a silent peer must surface as a timeout within
// the configured read bound, not block forever.
func TestReadDeadlineExpiry(t *testing.T) {
	addr := scriptServer(t, true, "", true)
	c, err := DialTimeout(addr, 2*time.Second, 100*time.Millisecond, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseNow()

	start := time.Now()
	_, _, err = c.Get([]byte("k"))
	if err == nil {
		t.Fatal("read from silent peer succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want timeout net.Error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	if Recoverable(err) {
		t.Fatal("timeout classified recoverable")
	}
}

// TestErrorReplyClassification: well-formed error replies are typed and
// Recoverable; unknown lines are dead-stream errors.
func TestErrorReplyClassification(t *testing.T) {
	addr := scriptServer(t, true, "SERVER_ERROR busy\r\n", false)
	c, err := DialTimeout(addr, 2*time.Second, 2*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.CloseNow()
	err = c.Set([]byte("k"), 0, 0, []byte("v"))
	var se *ServerError
	if !errors.As(err, &se) || se.Msg != "busy" {
		t.Fatalf("want ServerError busy, got %v", err)
	}
	if !IsBusy(err) || !Recoverable(err) {
		t.Fatalf("busy classification: IsBusy=%v Recoverable=%v", IsBusy(err), Recoverable(err))
	}

	addr = scriptServer(t, true, "CLIENT_ERROR invalid key\r\n", false)
	c2, err := DialTimeout(addr, 2*time.Second, 2*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.CloseNow()
	err = c2.Set([]byte("k"), 0, 0, []byte("v"))
	var ce *ClientError
	if !errors.As(err, &ce) || ce.Msg != "invalid key" {
		t.Fatalf("want ClientError, got %v", err)
	}
	if !Recoverable(err) || IsBusy(err) {
		t.Fatalf("client-error classification: Recoverable=%v IsBusy=%v", Recoverable(err), IsBusy(err))
	}

	addr = scriptServer(t, true, "GARBAGE LINE\r\n", false)
	c3, err := DialTimeout(addr, 2*time.Second, 2*time.Second, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.CloseNow()
	if err = c3.Set([]byte("k"), 0, 0, []byte("v")); err == nil || Recoverable(err) {
		t.Fatalf("garbage reply must be non-recoverable, got %v", err)
	}
}

// replyConn feeds a scripted reply to a Client and discards its writes.
type replyConn struct{ io.Reader }

func (replyConn) Write(p []byte) (int, error) { return len(p), nil }
func (replyConn) Close() error                { return nil }

// TestReadValueReplies drives every VALUE reader — single-key get and
// gets, multi-key get and gets — through one parser's accept and reject
// cases. A rejected reply must fail without a partial hit past the bad
// block.
func TestReadValueReplies(t *testing.T) {
	type hit struct {
		i     int
		flags uint32
		casid uint64
		val   string
	}
	ab := [][]byte{[]byte("a"), []byte("b")}
	cases := []struct {
		name, kind string // kind: get, gets, mget, mgets
		keys       [][]byte
		reply      string
		want       []hit
		wantErr    bool
	}{
		{"get hit", "get", nil, "VALUE k 5 3\r\nabc\r\nEND\r\n", []hit{{0, 0, 0, "abc"}}, false}, // ReadGetReply drops flags
		{"get miss", "get", nil, "END\r\n", nil, false},
		{"gets hit", "gets", nil, "VALUE k 5 3 77\r\nabc\r\nEND\r\n", []hit{{0, 5, 77, "abc"}}, false},
		{"multi-get", "mget", ab, "VALUE a 1 1\r\nx\r\nVALUE b 2 0\r\n\r\nEND\r\n", []hit{{0, 1, 0, "x"}, {1, 2, 0, ""}}, false},
		{"multi-get skips misses", "mget", ab, "VALUE b 2 2\r\nyz\r\nEND\r\n", []hit{{1, 2, 0, "yz"}}, false},
		{"multi-gets", "mgets", ab, "VALUE a 1 1 9\r\nx\r\nVALUE b 2 2 10\r\nyz\r\nEND\r\n", []hit{{0, 1, 9, "x"}, {1, 2, 10, "yz"}}, false},
		{"gets malformed cas", "gets", nil, "VALUE k 0 1 x9\r\na\r\nEND\r\n", nil, true},
		{"gets missing cas", "gets", nil, "VALUE k 0 1\r\na\r\nEND\r\n", nil, true},
		{"get extra field", "get", nil, "VALUE k 0 1 9\r\na\r\nEND\r\n", nil, true},
		{"multi-gets malformed cas", "mgets", ab, "VALUE a 0 1 9\r\nx\r\nVALUE b 0 1 -1\r\ny\r\nEND\r\n", []hit{{0, 0, 9, "x"}}, true},
		{"get short data", "get", nil, "VALUE k 0 5\r\nab", nil, true},
		{"multi-get short data", "mget", ab, "VALUE a 0 5\r\nab", nil, true},
		{"get bad data terminator", "get", nil, "VALUE k 0 2\r\nabcd\r\nEND\r\n", nil, true},
		{"get missing END", "get", nil, "VALUE k 0 1\r\na\r\n", nil, true},
		{"gets missing END", "gets", nil, "VALUE k 0 1 3\r\na\r\nVALUE", nil, true},
		{"multi-gets missing END", "mgets", ab, "VALUE a 0 1 3\r\nx\r\n", []hit{{0, 0, 3, "x"}}, true},
		{"multi-get unknown key", "mget", ab, "VALUE c 0 1\r\nx\r\nEND\r\n", nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewClient(replyConn{strings.NewReader(tc.reply)})
			var got []hit
			var err error
			switch tc.kind {
			case "get":
				var val []byte
				var ok bool
				if val, ok, err = c.ReadGetReply(); ok {
					got = append(got, hit{0, 0, 0, string(val)})
				}
			case "gets":
				var val []byte
				var flags uint32
				var casid uint64
				var ok bool
				if val, flags, casid, ok, err = c.ReadGetsReply(); ok {
					got = append(got, hit{0, flags, casid, string(val)})
				}
			case "mget":
				err = c.ReadMultiGetReply(tc.keys, func(i int, flags uint32, val []byte) {
					got = append(got, hit{i, flags, 0, string(val)})
				})
			case "mgets":
				err = c.readValues(tc.keys, 0, true, func(i int, flags uint32, casid uint64, val []byte) {
					got = append(got, hit{i, flags, casid, string(val)})
				})
			}
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if err != nil && Recoverable(err) {
				t.Fatalf("malformed reply classified recoverable: %v", err)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("hits = %v, want %v", got, tc.want)
			}
		})
	}
}
