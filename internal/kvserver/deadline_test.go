package kvserver

// The request read deadline reaps a client that dribbles one request:
// it is armed before the request is parsed and covers all of its reads.

import (
	"net"
	"strings"
	"testing"
	"time"
)

// TestSlowLorisReaped: a client that dribbles one never-finished get a
// byte every 50 ms keeps each read short of the 150 ms ReadTimeout, but
// the deadline bounds the whole request, so the server closes the
// connection well within a second.
func TestSlowLorisReaped(t *testing.T) {
	srv, ln := start(t, Config{Cache: smallCache(), ReadTimeout: 150 * time.Millisecond})
	defer srv.Shutdown(ln, time.Second)
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	begin := time.Now()
	req := "get " + strings.Repeat("k", 200) // never terminated, never too long
	buf := make([]byte, 64)
	for i := 0; time.Since(begin) < time.Second; i++ {
		if _, err := conn.Write([]byte{req[i%len(req)]}); err != nil {
			return // the server cut us off
		}
		conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		if _, err := conn.Read(buf); err != nil {
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				return // EOF or reset: reaped
			}
		}
	}
	t.Fatalf("slow-loris connection survived %v of dribbling", time.Since(begin))
}
