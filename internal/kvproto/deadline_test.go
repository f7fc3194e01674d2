package kvproto

// Tests for the client's read deadline: one deadline per reply, armed at
// the reply's first network read and covering all of its reads.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// dribbleServer accepts one connection, reads the request, then writes
// each of lines in its own write, gap apart, the first at once. It
// returns the listener's address.
func dribbleServer(t *testing.T, lines []string, gap time.Duration) string {
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
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 1024)
		if _, err := conn.Read(buf); err != nil {
			return
		}
		for i, l := range lines {
			if i > 0 {
				time.Sleep(gap)
			}
			if _, err := conn.Write([]byte(l)); err != nil {
				return
			}
		}
		time.Sleep(time.Second) // outlives the client's deadline
	}()
	return ln.Addr().String()
}

// TestReplyDeadlineBoundsWholeReply: a peer that answers a multi-key get
// or a stats request one line every 0.6·T never stalls any single read
// past T, yet the reply as a whole outlasts T. The read timeout is a
// per-reply bound, so the read must fail with a timeout well before the
// reply would complete.
func TestReplyDeadlineBoundsWholeReply(t *testing.T) {
	const T = 150 * time.Millisecond
	for _, tc := range []struct {
		name  string
		lines []string
		read  func(c *Client) error
	}{
		{"multi-key get", []string{"VALUE a 0 1\r\nx\r\n", "VALUE b 0 1\r\ny\r\n", "VALUE c 0 1\r\nz\r\n", "END\r\n"},
			func(c *Client) error {
				return c.MultiGet([][]byte{[]byte("a"), []byte("b"), []byte("c")}, nil)
			}},
		{"stats", []string{"STAT a 1\r\n", "STAT b 2\r\n", "STAT c 3\r\n", "END\r\n"},
			func(c *Client) error {
				_, err := c.Stats()
				return err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := dribbleServer(t, tc.lines, T*6/10)
			c, err := DialTimeout(addr, 2*time.Second, T, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.CloseNow()
			start := time.Now()
			err = tc.read(c)
			elapsed := time.Since(start)
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("want timeout net.Error, got %v after %v", err, elapsed)
			}
			if elapsed >= 2*T {
				t.Fatalf("timeout took %v, want under %v", elapsed, 2*T)
			}
		})
	}
}

// memConn is an in-memory connection with deadlines. It serves src as
// its read stream, at most chunk bytes per Read (0 = no limit) and never
// past the end of src, starting over when loop is set; it discards
// writes and counts the read deadlines armed. A Read past an expired
// deadline fails as a network read would.
type memConn struct {
	src      []byte
	off      int
	chunk    int
	loop     bool
	deadline time.Time
	arms     int
}

func (c *memConn) Read(p []byte) (int, error) {
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		return 0, os.ErrDeadlineExceeded
	}
	if c.off == len(c.src) {
		if !c.loop {
			return 0, io.EOF
		}
		c.off = 0
	}
	if c.chunk > 0 && len(p) > c.chunk {
		p = p[:c.chunk]
	}
	n := copy(p, c.src[c.off:])
	c.off += n
	return n, nil
}

func (c *memConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *memConn) Close() error                { return nil }

func (c *memConn) SetReadDeadline(t time.Time) error {
	c.arms++
	c.deadline = t
	return nil
}

func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// multiGetReply builds n keys and the reply that hits every one of them
// with a size-byte value.
func multiGetReply(n, size int) ([][]byte, string) {
	keys := make([][]byte, n)
	var reply strings.Builder
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key:%03d", i))
		fmt.Fprintf(&reply, "VALUE %s 0 %d\r\n%s\r\n", keys[i], size, strings.Repeat("v", size))
	}
	reply.WriteString("END\r\n")
	return keys, reply.String()
}

// TestReadDeadlineArmedOncePerNetworkReply pins how often a pipelined
// burst arms the read deadline: 32 single-key get replies and one 16-key
// reply arriving in one write arm it once (at most twice), however many
// replies and lines the burst holds; a reply spread over many small
// reads arms it once for all of them.
func TestReadDeadlineArmedOncePerNetworkReply(t *testing.T) {
	keys, multi := multiGetReply(16, 8)
	var burst strings.Builder
	for i := 0; i < 32; i++ {
		if i%2 == 0 {
			fmt.Fprintf(&burst, "VALUE g%02d 0 3\r\nv%02d\r\nEND\r\n", i, i)
		} else {
			burst.WriteString("END\r\n")
		}
	}
	burst.WriteString(multi)

	conn := &memConn{src: []byte(burst.String())}
	c := NewClient(conn)
	c.SetTimeouts(time.Second, time.Second)
	for i := 0; i < 32; i++ {
		c.SendGet([]byte(fmt.Sprintf("g%02d", i)))
	}
	c.SendMultiGet(keys)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		val, ok, err := c.ReadGetReply()
		if err != nil || ok != (i%2 == 0) || (ok && string(val) != fmt.Sprintf("v%02d", i)) {
			t.Fatalf("get reply %d: %q ok=%v err=%v", i, val, ok, err)
		}
	}
	hits := 0
	if err := c.ReadMultiGetReply(keys, func(int, uint32, []byte) { hits++ }); err != nil || hits != len(keys) {
		t.Fatalf("multi-key reply: %d hits, err %v", hits, err)
	}
	if conn.arms > 2 {
		t.Errorf("burst in one write armed the read deadline %d times, want at most 2", conn.arms)
	}

	conn = &memConn{src: []byte(multi), chunk: 7}
	c = NewClient(conn)
	c.SetTimeouts(time.Second, time.Second)
	hits = 0
	if err := c.ReadMultiGetReply(keys, func(int, uint32, []byte) { hits++ }); err != nil || hits != len(keys) {
		t.Fatalf("fragmented multi-key reply: %d hits, err %v", hits, err)
	}
	if conn.arms != 1 {
		t.Errorf("one reply over %d-byte reads armed the read deadline %d times, want 1", conn.chunk, conn.arms)
	}
}

// BenchmarkClientReadMultiGet reads one 16-key reply per iteration, each
// arriving in its own network read from a connection that carries
// deadlines, with the read timeout set: the client's per-reply parse
// and deadline cost.
func BenchmarkClientReadMultiGet(b *testing.B) {
	keys, reply := multiGetReply(16, 64)
	conn := &memConn{src: []byte(reply), loop: true}
	c := NewClient(conn)
	c.SetTimeouts(time.Minute, time.Minute)
	hits := 0
	fn := func(int, uint32, []byte) { hits++ }
	b.ReportAllocs()
	b.SetBytes(int64(len(reply)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReadMultiGetReply(keys, fn); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if hits != b.N*len(keys) {
		b.Fatalf("%d hits over %d replies", hits, b.N)
	}
	b.ReportMetric(float64(conn.arms)/float64(b.N), "arms/op")
}
