package kvserver

// Tests for set runs: consecutive pipelined sets reach the Backend as
// one SetBatch, yet every reply stream must be byte-identical to the
// same requests dispatched one at a time, values must survive any
// fragmentation of the input, and a node's run must allocate only what
// the cache keeps.

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kvproto"
)

// runRecorder wraps a Backend and records the size of every SetBatch.
type runRecorder struct {
	Backend
	runs []int
}

func (r *runRecorder) SetBatch(sets []kvproto.SetReq, errs []error) error {
	r.runs = append(r.runs, len(sets))
	return r.Backend.SetBatch(sets, errs)
}

// pipeSession serves one connection of srv over net.Pipe, writes each
// chunk in its own Write, then quits, and returns every reply byte.
func pipeSession(t *testing.T, srv *Server, chunks []string) string {
	t.Helper()
	cli, sc := net.Pipe()
	defer cli.Close()
	go func() {
		srv.handle(sc)
		sc.Close()
	}()
	go func() {
		for _, c := range chunks {
			if _, err := cli.Write([]byte(c)); err != nil {
				return
			}
		}
		cli.Write([]byte("quit\r\n"))
	}()
	got, err := io.ReadAll(cli)
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

// TestSetRunRepliesMatchSerial: a burst of sets, gets, an oversize set
// and a delete must answer byte-for-byte what the same requests answer
// when each arrives in its own write (so the loop dispatches it alone).
// The oversize set is refused in its own place — after the replies of
// the sets queued before it — and is counted in sets_rejected, never in
// the set latency histogram.
func TestSetRunRepliesMatchSerial(t *testing.T) {
	oversize := "set a 9 0 20\r\n" + strings.Repeat("x", 20) + "\r\n"
	for _, tc := range []struct {
		name     string
		reqs     []string
		wantRuns []int // SetBatch sizes when the requests arrive as one burst
	}{
		{"sets, gets, oversize set, delete", []string{
			"set a 1 0 2\r\naa\r\n",
			"set b 2 0 2\r\nbb\r\n",
			"get a b\r\n",
			oversize,
			"delete b\r\n",
			"get a\r\n",
		}, []int{2}},
		{"oversize inside a run", []string{
			"set a 1 0 2\r\naa\r\n",
			"set b 2 0 2\r\nbb\r\n",
			oversize,
			"set c 3 0 2\r\ncc\r\n",
			"set d 4 0 2\r\ndd\r\n",
			"get a b c d\r\n",
		}, []int{2, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var replies [2]string
			var rec [2]*runRecorder
			for i, chunks := range [][]string{tc.reqs, {strings.Join(tc.reqs, "")}} {
				srv := New(Config{Cache: smallCache(), MaxItemSize: 16})
				rec[i] = &runRecorder{Backend: srv.backend}
				srv.backend = rec[i]
				replies[i] = pipeSession(t, srv, chunks)
				sets := 0
				for _, r := range tc.reqs {
					if strings.HasPrefix(r, "set") && r != oversize {
						sets++
					}
				}
				if got := srv.OpLatency("set").Count; got != uint64(sets) {
					t.Errorf("set latency samples = %d, want %d (the oversize set excluded)", got, sets)
				}
				if got := srv.SetsRejected(); got != 1 {
					t.Errorf("sets rejected = %d, want 1", got)
				}
			}
			serial, burst := replies[0], replies[1]
			if burst != serial {
				t.Fatalf("burst replies differ from serial:\nburst  %q\nserial %q", burst, serial)
			}
			if !strings.Contains(serial, "STORED\r\nSTORED\r\n") || !strings.Contains(serial, "SERVER_ERROR object too large\r\n") {
				t.Fatalf("unexpected reply stream %q", serial)
			}
			for _, n := range rec[0].runs {
				if n != 1 {
					t.Fatalf("serial dispatch formed set runs %v, want runs of one", rec[0].runs)
				}
			}
			if !reflect.DeepEqual(rec[1].runs, tc.wantRuns) {
				t.Errorf("burst set runs = %v, want %v", rec[1].runs, tc.wantRuns)
			}
		})
	}
}

// TestSetRunFragmentedInput: a 10-set run whose bytes arrive in small
// writes — down to one byte per Write — must store every value under
// its own key, however the parser's refills split keys and values
// across queued sets.
func TestSetRunFragmentedInput(t *testing.T) {
	var burst, get strings.Builder
	var want strings.Builder
	get.WriteString("get")
	for i := 0; i < 10; i++ {
		key, val := fmt.Sprintf("key-%d", i), strings.Repeat(string(rune('a'+i)), 20+i)
		fmt.Fprintf(&burst, "set %s %d 0 %d\r\n%s\r\n", key, i, len(val), val)
		fmt.Fprintf(&get, " %s", key)
		fmt.Fprintf(&want, "VALUE %s %d %d\r\n%s\r\n", key, i, len(val), val)
	}
	get.WriteString("\r\n")
	want.WriteString("END\r\n")
	input := burst.String() + get.String()
	for _, size := range []int{1, 7, 64} {
		var chunks []string
		for off := 0; off < len(input); off += size {
			chunks = append(chunks, input[off:min(off+size, len(input))])
		}
		srv := New(Config{Cache: smallCache()})
		got := pipeSession(t, srv, chunks)
		if exp := strings.Repeat("STORED\r\n", 10) + want.String(); got != exp {
			t.Errorf("%d-byte writes:\ngot  %q\nwant %q", size, got, exp)
		}
	}
}

// TestSetRunNodeAllocs: a steady-state pipelined 10-set run allocates
// at most two objects per set on a node — the key string and the value
// copy, both kept by the cache.
func TestSetRunNodeAllocs(t *testing.T) {
	const n = 10
	srv := New(Config{Cache: smallCache()})
	cli, sc := net.Pipe()
	defer cli.Close()
	go func() {
		srv.handle(sc)
		sc.Close()
	}()
	var burst strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&burst, "set k%d 0 0 16\r\n%s\r\n", i, strings.Repeat("v", 16))
	}
	req := []byte(burst.String())
	reply := make([]byte, n*len("STORED\r\n"))
	run := func() {
		if _, err := cli.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(cli, reply); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		run() // warm the run's slices and the arena
	}
	if got := string(reply); got != strings.Repeat("STORED\r\n", n) {
		t.Fatalf("replies %q", got)
	}
	if avg := testing.AllocsPerRun(200, run); avg > 2*n {
		t.Errorf("%v allocs per %d-set run, want <= %d (key string + value copy per set)", avg, n, 2*n)
	}
}
