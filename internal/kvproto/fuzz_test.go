package kvproto

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzReaderNext throws arbitrary bytes at the request parser. The
// properties under test: no panics, no infinite loops, every successful
// parse satisfies the protocol's declared invariants, every *ClientError
// leaves the stream resynchronized (the parser keeps making progress),
// and the parse does not depend on how the bytes are split across reads:
// one byte per read, and two reads cut at a fuzzed offset, give the same
// requests and the same final error as one buffer. Seeds cover each
// command, each recoverable violation, and truncations at interesting
// offsets.
func FuzzReaderNext(f *testing.F) {
	seeds := []string{
		// Valid traffic.
		"get foo\r\n",
		"get foo\n",
		"get a b\r\n",
		"get a b c d e\r\n",
		"set bar 7 0 5\r\nhello\r\n",
		"set bar 0 0 0\r\n\r\n",
		"gets foo\r\n",
		"gets a b\r\n",
		"cas bar 7 0 5 42\r\nhello\r\n",
		// cas unique boundaries: zero, max uint64, one past max (overflow).
		"cas k 0 0 1 0\r\nx\r\n",
		"cas k 0 0 1 18446744073709551615\r\nx\r\n",
		"cas k 0 0 1 18446744073709551616\r\nx\r\n",
		// cas with a missing unique and with trailing junk.
		"cas k 0 0 1\r\nx\r\n",
		"cas k 0 0 1 7 junk\r\nx\r\n",
		"delete foo\r\n",
		"stats\r\n",
		"quit\r\n",
		"noop\r\n",
		"noop extra\r\n",
		"flush_all\r\n",
		"FLUSH_ALL\r\n",
		"flush_all 30\r\n",
		"set a 1 2 3\r\nxyz\r\nget a\r\ndelete a\r\nquit\r\n",
		// TTL pivots: never-expires, the relative/absolute boundary, and
		// immediate expiry via negative exptime.
		"set k 0 -1 1\r\nx\r\n",
		"set k 0 0 1\r\nx\r\n",
		"set k 0 2592000 1\r\nx\r\n",
		"set k 0 2592001 1\r\nx\r\n",
		// Violations that must stay recoverable.
		"set k 0 4294967296 1\r\n",
		"set k 0 18446744073709551616 1\r\n",
		"set k 0 - 1\r\n",
		"frobnicate\r\n",
		"get a  b\r\n",
		"get\r\n",
		"set k 0 0 nope\r\n",
		"set k 0 5\r\n",
		"set k 0 0 99999999999999999999\r\nx\r\n",
		// Sizes whose drain count once overflowed: past int64 and max
		// uint64, each followed by a command that must not be eaten.
		"set k 0 0 9223372036854775808\r\nget a\r\n",
		"set k 0 0 18446744073709551615\r\nget a\r\n",
		// Truncations: mid-line, mid-header, mid-chunk, missing terminator.
		"get fo",
		"gets fo",
		"set bar 7 0 5",
		"set bar 7 0 5\r\nhel",
		"set bar 7 0 5\r\nhelloXY",
		"cas bar 7 0 5 4",
		"cas bar 7 0 5 42\r\nhel",
		"cas bar 7 0 5 42\r\nhelloXY",
		"\r\n",
		"\n",
		"",
		" \r\n",
		"get \x00\r\n",
	}
	for _, s := range seeds {
		// Split each seed in half and just past its first command line:
		// the latter makes a store's data chunk arrive in a refill of
		// its own, the refill that once overwrote an aliased key.
		f.Add([]byte(s), uint16(len(s)/2))
		f.Add([]byte(s), uint16(strings.IndexByte(s, '\n')+1))
	}
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		whole, wholeErr := parseAll(t, bytes.NewReader(data), len(data))
		for _, p := range whole {
			checkInvariants(t, p)
		}
		// Fatal errors must be the documented ones.
		if wholeErr != io.EOF && wholeErr != io.ErrUnexpectedEOF && wholeErr != ErrCorrupt {
			t.Fatalf("undocumented fatal error: %v", wholeErr)
		}
		// Parsing must not depend on how the bytes arrive: one at a time,
		// or in two reads cut at a fuzz-chosen offset.
		cut := int(split) % (len(data) + 1)
		for _, fr := range []struct {
			name string
			r    io.Reader
		}{
			{"one byte per read", iotest.OneByteReader(bytes.NewReader(data))},
			{fmt.Sprintf("split at %d", cut), io.MultiReader(bytes.NewReader(data[:cut]), bytes.NewReader(data[cut:]))},
		} {
			got, gotErr := parseAll(t, fr.r, len(data))
			for i := 0; i < len(got) || i < len(whole); i++ {
				if i >= len(got) || i >= len(whole) || !reflect.DeepEqual(got[i], whole[i]) {
					t.Fatalf("%s: outcome %d differs from the one-buffer parse:\n got %s\nwant %s",
						fr.name, i, outcomeAt(got, i), outcomeAt(whole, i))
				}
			}
			if gotErr != wholeErr {
				t.Fatalf("%s: parse ended in %v, the one-buffer parse in %v", fr.name, gotErr, wholeErr)
			}
		}
	})
}

// outcome is one Next result, copied out of the Reader's reused buffers:
// a parsed request, or the message of a recoverable *ClientError.
type outcome struct {
	Op        Op
	Keys      []string
	Key       string
	Value     string
	Flags     uint32
	Exptime   int64
	Cas       uint64
	ClientErr string
}

func outcomeAt(outs []outcome, i int) string {
	if i >= len(outs) {
		return "(none)"
	}
	return fmt.Sprintf("%#v", outs[i])
}

// parseAll calls Next until it returns a fatal error, recording every
// outcome. Each call consumes at least one byte (a line or a chunk), so
// more than n+1 calls on an n-byte input means the parser stalled.
func parseAll(t *testing.T, r io.Reader, n int) ([]outcome, error) {
	t.Helper()
	rd := NewReader(r)
	var (
		req  Request
		outs []outcome
	)
	for i := 0; i <= n+1; i++ {
		err := rd.Next(&req)
		var ce *ClientError
		switch {
		case err == nil:
			o := outcome{Op: req.Op, Key: string(req.Key), Value: string(req.Value),
				Flags: req.Flags, Exptime: req.Exptime, Cas: req.Cas}
			for _, k := range req.Keys {
				o.Keys = append(o.Keys, string(k))
			}
			outs = append(outs, o)
		case errors.As(err, &ce):
			outs = append(outs, outcome{ClientErr: ce.Msg}) // resynchronized; keep going
		default:
			return outs, err
		}
	}
	t.Fatalf("parser failed to terminate on %d-byte input", n)
	return nil, nil
}

// checkInvariants asserts the protocol's declared invariants on one
// successfully parsed request.
func checkInvariants(t *testing.T, o outcome) {
	t.Helper()
	if o.ClientErr != "" {
		return
	}
	switch o.Op {
	case OpGet, OpGets:
		if n := len(o.Keys); n < 1 || n > MaxGetKeys {
			t.Fatalf("accepted %v with %d keys", o.Op, n)
		}
		for _, k := range o.Keys {
			if !validKey([]byte(k)) {
				t.Fatalf("accepted invalid key %q", k)
			}
		}
		if o.Key != o.Keys[0] {
			t.Fatalf("Key %q != Keys[0] %q", o.Key, o.Keys[0])
		}
	case OpDelete:
		if !validKey([]byte(o.Key)) {
			t.Fatalf("accepted invalid key %q", o.Key)
		}
	case OpSet, OpCas:
		if !validKey([]byte(o.Key)) {
			t.Fatalf("accepted invalid %v key %q", o.Op, o.Key)
		}
		if len(o.Value) > MaxValueBytes {
			t.Fatalf("accepted %d-byte value", len(o.Value))
		}
	case OpStats, OpQuit, OpNoop, OpFlushAll:
	default:
		t.Fatalf("parsed request with op %v", o.Op)
	}
}
