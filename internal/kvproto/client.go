package kvproto

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"time"
)

// deadliner is the subset of net.Conn the Client uses to arm per-
// operation timeouts; wrapped non-network streams simply lack it.
type deadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// Client is a protocol client for one goroutine. The synchronous calls
// (Get, Set, MultiGet, ...) are one-request batches; the pipelined
// interface (SendXxx, Flush, ReadXxxReply) queues any number of requests
// and reads their replies in request order. cmd/kvloadgen runs one Client
// per connection goroutine; tests use it to talk to cmd/adaptcached.
//
// Get's returned value aliases an internal buffer valid until the next
// call, keeping the request loop allocation-light.
//
// With SetTimeouts armed, every reply read and every Flush carries a
// deadline, so a dead or stalled peer surfaces as a timeout error instead
// of blocking the caller forever. Deadline expiry leaves the stream state
// unknown: the error is not Recoverable and the connection must be
// discarded.
type Client struct {
	conn io.ReadWriteCloser
	dl   deadliner // nil when conn cannot carry deadlines
	rd   replyReader
	br   *bufio.Reader
	bw   *bufio.Writer
	val  []byte

	writeTimeout time.Duration
}

// replyReader sits between Client.br and the connection and arms the
// read deadline lazily. Each reply read starts by clearing armed (a bool
// store); the first connection read after that sets the deadline. A
// reply already buffered arms nothing, and one that waits on the network
// gets exactly one deadline covering all of its reads.
type replyReader struct {
	conn    io.Reader
	dl      deadliner // nil when conn cannot carry deadlines
	timeout time.Duration
	armed   bool
}

func (r *replyReader) Read(p []byte) (int, error) {
	if !r.armed {
		r.armed = true
		if r.dl != nil && r.timeout > 0 {
			if err := r.dl.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
				return 0, err
			}
		}
	}
	return r.conn.Read(p)
}

// Dial connects to a protocol server at addr (host:port).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// DialTimeout connects with a bounded dial and arms per-operation read
// and write deadlines (zero durations disable the respective bound).
func DialTimeout(addr string, dialTO, readTO, writeTO time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTO)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn)
	c.SetTimeouts(readTO, writeTO)
	return c, nil
}

// NewClient wraps an established connection.
func NewClient(conn io.ReadWriteCloser) *Client {
	c := &Client{conn: conn, bw: bufio.NewWriterSize(conn, 4096)}
	c.dl, _ = conn.(deadliner)
	c.rd = replyReader{conn: conn, dl: c.dl}
	c.br = bufio.NewReaderSize(&c.rd, 4096)
	return c
}

// SetTimeouts arms per-operation deadlines. read bounds one reply: it is
// armed once, at the reply's first network read (a ReadXxxReply, Stats
// or multi-key reply served from already-buffered bytes arms nothing),
// and covers every read of that reply. write covers one Flush. Zero
// disables a bound. No-op when the underlying stream cannot carry
// deadlines.
func (c *Client) SetTimeouts(read, write time.Duration) {
	c.rd.timeout, c.writeTimeout = read, write
}

// beginReply marks a reply boundary: the next network read arms the
// read deadline.
func (c *Client) beginReply() { c.rd.armed = false }

func (c *Client) armWrite() {
	if c.dl != nil && c.writeTimeout > 0 {
		c.dl.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
}

// Close sends quit (best effort) and closes the connection.
func (c *Client) Close() error {
	c.armWrite()
	c.bw.WriteString("quit\r\n")
	c.bw.Flush()
	return c.conn.Close()
}

// CloseNow closes the connection without the quit courtesy — for streams
// already known dead, where writing would only block or mask the error.
func (c *Client) CloseNow() error { return c.conn.Close() }

// readLine reads one reply line without its terminator.
func (c *Client) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// unexpected converts a surprising reply line into an error (copying the
// line, which aliases the read buffer).
func unexpected(line []byte) error {
	return fmt.Errorf("kvproto: unexpected reply %q", line)
}

// errorFromReply classifies a non-success reply line. CLIENT_ERROR,
// SERVER_ERROR, and ERROR are well-formed error replies after which the
// stream stays synchronized (the returned error is Recoverable); anything
// else means the stream is desynchronized and the connection is dead.
func errorFromReply(line []byte) error {
	switch {
	case bytes.HasPrefix(line, clientErrorPfx):
		return &ClientError{Msg: string(line[len(clientErrorPfx):])}
	case bytes.HasPrefix(line, serverErrorPfx):
		return &ServerError{Msg: string(line[len(serverErrorPfx):])}
	case bytes.Equal(line, replyError[:5]): // "ERROR"
		return &ClientError{Msg: "unknown command"}
	default:
		return unexpected(line)
	}
}

// --- Pipelined interface ---------------------------------------------------
//
// SendGet/SendSet/SendDelete queue requests without flushing; Flush writes
// the batch; the matching ReadXxxReply calls consume replies in request
// order. The synchronous Get/Set/Delete methods are one-request batches.
// Deep pipelines amortize both sides' syscalls — essential for driving a
// server at six figures of ops/s from a closed loop.

// SendGet queues a get without flushing.
func (c *Client) SendGet(key []byte) {
	c.bw.WriteString("get ")
	c.bw.Write(key)
	c.bw.WriteString("\r\n")
}

// SendSet queues a set without flushing. exptime carries memcached TTL
// semantics (0 = never expire; see the package doc).
func (c *Client) SendSet(key []byte, flags uint32, exptime int64, val []byte) {
	c.bw.WriteString("set ")
	c.bw.Write(key)
	c.bw.WriteByte(' ')
	writeUint(c.bw, uint64(flags))
	c.bw.WriteByte(' ')
	writeInt(c.bw, exptime)
	c.bw.WriteByte(' ')
	writeUint(c.bw, uint64(len(val)))
	c.bw.WriteString("\r\n")
	c.bw.Write(val)
	c.bw.WriteString("\r\n")
}

// SetReq is one set of a pipelined run (ReconnectClient.SetRun and the
// serving loop's set runs). Key and Value are borrowed: callees read
// them only for the duration of the call.
type SetReq struct {
	Key     []byte
	Value   []byte
	Flags   uint32
	Exptime int64
}

// SendDelete queues a delete without flushing.
func (c *Client) SendDelete(key []byte) {
	c.bw.WriteString("delete ")
	c.bw.Write(key)
	c.bw.WriteString("\r\n")
}

// Flush writes all queued requests to the connection.
func (c *Client) Flush() error {
	c.armWrite()
	return c.bw.Flush()
}

// Get fetches key. The returned slice is valid until the next Client call.
func (c *Client) Get(key []byte) (val []byte, ok bool, err error) {
	c.SendGet(key)
	if err := c.Flush(); err != nil {
		return nil, false, err
	}
	return c.ReadGetReply()
}

// ReadGetReply consumes one get response. The returned slice is valid
// until the next Client call.
func (c *Client) ReadGetReply() (val []byte, ok bool, err error) {
	val, _, _, ok, err = c.readOne(false)
	return val, ok, err
}

// readOne consumes a single-key get or gets reply: END, or one VALUE
// block (with its cas unique when cas is set) then END.
func (c *Client) readOne(cas bool) (val []byte, flags uint32, casid uint64, ok bool, err error) {
	c.beginReply()
	line, err := c.readLine()
	if err != nil {
		return nil, 0, 0, false, err
	}
	if bytes.Equal(line, replyEnd[:3]) { // "END"
		return nil, 0, 0, false, nil
	}
	if !bytes.HasPrefix(line, valuePrefix) {
		return nil, 0, 0, false, errorFromReply(line)
	}
	// The key is trusted: one request, one key.
	_, flags, size, casid, okV := parseValueLine(line, cas)
	if !okV {
		return nil, 0, 0, false, unexpected(line)
	}
	if val, err = c.readData(size); err != nil {
		return nil, 0, 0, false, err
	}
	end, err := c.readLine()
	if err != nil {
		return nil, 0, 0, false, err
	}
	if !bytes.Equal(end, replyEnd[:3]) {
		return nil, 0, 0, false, unexpected(end)
	}
	return val, flags, casid, true, nil
}

// parseValueLine is the one VALUE-line parser: "VALUE <key> <flags>
// <bytes>", plus " <cas unique>" when cas is set. key aliases line.
func parseValueLine(line []byte, cas bool) (key []byte, flags uint32, size int, casid uint64, ok bool) {
	key, rest := nextField(line[len(valuePrefix):])
	flagsB, rest := nextField(rest)
	sizeB, rest := nextField(rest)
	okC := true
	if cas {
		var casB []byte
		casB, rest = nextField(rest)
		casid, okC = parseUint(casB)
	}
	f, okF := parseUint(flagsB)
	n, okN := parseUint(sizeB)
	if !okF || !okN || !okC || len(rest) != 0 || f > 0xffffffff || n > MaxValueBytes {
		return nil, 0, 0, 0, false
	}
	return key, uint32(f), int(n), casid, true
}

// readData reads one VALUE block's data and its CRLF terminator. The
// returned slice aliases c.val, valid until the next read.
func (c *Client) readData(size int) ([]byte, error) {
	if cap(c.val) < size+2 {
		c.val = make([]byte, size+2)
	}
	buf := c.val[:size+2]
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, err
	}
	if buf[size] != '\r' || buf[size+1] != '\n' {
		return nil, unexpected(buf)
	}
	return buf[:size], nil
}

// SendGets queues a gets (get-with-cas-unique) without flushing.
func (c *Client) SendGets(key []byte) {
	c.bw.WriteString("gets ")
	c.bw.Write(key)
	c.bw.WriteString("\r\n")
}

// ReadGetsReply consumes one gets response, returning the value, its
// stored flags word, and the entry's cas unique. The returned slice is
// valid until the next Client call.
func (c *Client) ReadGetsReply() (val []byte, flags uint32, casid uint64, ok bool, err error) {
	return c.readOne(true)
}

// Gets fetches key together with its flags and cas unique, the token a
// later Cas must present. The returned slice is valid until the next
// Client call.
func (c *Client) Gets(key []byte) (val []byte, flags uint32, casid uint64, ok bool, err error) {
	c.SendGets(key)
	if err := c.Flush(); err != nil {
		return nil, 0, 0, false, err
	}
	return c.ReadGetsReply()
}

// CasStatus is the outcome of a cas operation. Callers must check the
// error first: on a non-nil error the status is meaningless.
type CasStatus uint8

const (
	CasStored   CasStatus = iota // swapped: the unique matched
	CasExists                    // key resident but modified since the gets
	CasNotFound                  // key absent (or expired)
)

// SendCas queues a cas without flushing. casid is the unique returned by
// a prior gets; exptime carries memcached TTL semantics.
func (c *Client) SendCas(key []byte, flags uint32, exptime int64, casid uint64, val []byte) {
	c.bw.WriteString("cas ")
	c.bw.Write(key)
	c.bw.WriteByte(' ')
	writeUint(c.bw, uint64(flags))
	c.bw.WriteByte(' ')
	writeInt(c.bw, exptime)
	c.bw.WriteByte(' ')
	writeUint(c.bw, uint64(len(val)))
	c.bw.WriteByte(' ')
	writeUint(c.bw, casid)
	c.bw.WriteString("\r\n")
	c.bw.Write(val)
	c.bw.WriteString("\r\n")
}

// ReadCasReply consumes one cas response.
func (c *Client) ReadCasReply() (CasStatus, error) {
	c.beginReply()
	line, err := c.readLine()
	if err != nil {
		return CasNotFound, err
	}
	switch {
	case bytes.Equal(line, replyStored[:6]): // "STORED"
		return CasStored, nil
	case bytes.Equal(line, replyExists[:6]): // "EXISTS"
		return CasExists, nil
	case bytes.Equal(line, replyNotFound[:9]): // "NOT_FOUND"
		return CasNotFound, nil
	default:
		return CasNotFound, errorFromReply(line)
	}
}

// Cas atomically replaces key's value iff its cas unique still equals
// casid (from a prior Gets). CasExists means a concurrent write won the
// race; the caller re-reads and retries.
func (c *Client) Cas(key []byte, flags uint32, exptime int64, casid uint64, val []byte) (CasStatus, error) {
	c.SendCas(key, flags, exptime, casid, val)
	if err := c.Flush(); err != nil {
		return CasNotFound, err
	}
	return c.ReadCasReply()
}

// SendMultiGet queues one multi-key get ("get k1 k2 ...") without
// flushing. keys must hold 1..MaxGetKeys entries.
func (c *Client) SendMultiGet(keys [][]byte) { c.sendMulti("get", keys) }

func (c *Client) sendMulti(cmd string, keys [][]byte) {
	c.bw.WriteString(cmd)
	for _, k := range keys {
		c.bw.WriteByte(' ')
		c.bw.Write(k)
	}
	c.bw.WriteString("\r\n")
}

// ReadMultiGetReply consumes one multi-key get response for the given
// request keys. Each hit invokes fn (when non-nil) with the key's index
// into keys, the stored flags word, and the value; val aliases an
// internal buffer valid only until fn returns. The server emits hits in
// request order, so replies match by scanning keys forward; a duplicate
// key matches its earliest unconsumed index.
func (c *Client) ReadMultiGetReply(keys [][]byte, fn func(i int, flags uint32, val []byte)) error {
	return c.readValues(keys, 0, false, func(i int, flags uint32, _ uint64, val []byte) {
		if fn != nil {
			fn(i, flags, val)
		}
	})
}

// readValues consumes one multi-key get (or, with cas, gets) response,
// handing each hit to fn with its index into keys plus off.
func (c *Client) readValues(keys [][]byte, off int, cas bool, fn func(i int, flags uint32, casid uint64, val []byte)) error {
	c.beginReply()
	next := 0
	for {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if bytes.Equal(line, replyEnd[:3]) { // "END"
			return nil
		}
		if !bytes.HasPrefix(line, valuePrefix) {
			return errorFromReply(line)
		}
		key, flags, size, casid, ok := parseValueLine(line, cas)
		if !ok {
			return unexpected(line)
		}
		// Match before reading the data: key aliases the read buffer.
		for next < len(keys) && !bytes.Equal(keys[next], key) {
			next++
		}
		if next == len(keys) {
			return unexpected(line)
		}
		idx := next
		next++
		val, err := c.readData(size)
		if err != nil {
			return err
		}
		fn(off+idx, flags, casid, val)
	}
}

// MultiGet fetches several keys in one round trip; see ReadMultiGetReply
// for the callback contract.
func (c *Client) MultiGet(keys [][]byte, fn func(i int, flags uint32, val []byte)) error {
	c.SendMultiGet(keys)
	if err := c.Flush(); err != nil {
		return err
	}
	return c.ReadMultiGetReply(keys, fn)
}

// maxGetLineBytes is the client-side budget for one "get ..." command
// line: the server's Reader parses lines through a 1024-byte buffer and
// rejects anything longer, so chunks are split on bytes as well as key
// count (128 keys of 250-byte maximum-length keys would be a 30x
// overflow otherwise). 1000 leaves headroom for "gets" and CRLF.
const maxGetLineBytes = 1000

// getChunkEnd returns the end of the chunk starting at base: as many
// keys as fit under both MaxGetKeys and maxGetLineBytes (always at
// least one — a single valid key never overflows the line).
func getChunkEnd(keys [][]byte, base int) int {
	end := base
	line := len("get")
	for end < len(keys) && end-base < MaxGetKeys {
		line += 1 + len(keys[end])
		if line > maxGetLineBytes && end > base {
			break
		}
		end++
	}
	return end
}

// MultiGetChunked fetches any number of keys, transparently splitting the
// request into multi-key gets bounded by MaxGetKeys and the server's
// command-line budget. All chunks are queued and flushed in one write
// (the server answers them as one pipelined burst), so the split costs
// no extra round trips. fn receives indexes into the full keys slice;
// its callback contract is ReadMultiGetReply's. On error the stream
// position within the burst is unknown and the connection must be
// discarded unless the error is Recoverable on the final chunk.
func (c *Client) MultiGetChunked(keys [][]byte, fn func(i int, flags uint32, val []byte)) error {
	return c.getChunked(keys, false, func(i int, flags uint32, _ uint64, val []byte) {
		if fn != nil {
			fn(i, flags, val)
		}
	})
}

// getChunked is MultiGetChunked for get or, with cas, gets: every hit
// also carries its cas unique.
func (c *Client) getChunked(keys [][]byte, cas bool, fn func(i int, flags uint32, casid uint64, val []byte)) error {
	if len(keys) == 0 {
		return nil
	}
	cmd := "get"
	if cas {
		cmd = "gets"
	}
	for base := 0; base < len(keys); base = getChunkEnd(keys, base) {
		c.sendMulti(cmd, keys[base:getChunkEnd(keys, base)])
	}
	if err := c.Flush(); err != nil {
		return err
	}
	for base := 0; base < len(keys); {
		end := getChunkEnd(keys, base)
		if err := c.readValues(keys[base:end], base, cas, fn); err != nil {
			return err
		}
		base = end
	}
	return nil
}

// SendNoop queues a noop without flushing.
func (c *Client) SendNoop() { c.bw.WriteString("noop\r\n") }

// ReadNoopReply consumes one noop response.
func (c *Client) ReadNoopReply() error {
	c.beginReply()
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if !bytes.Equal(line, replyNoop[:4]) { // "NOOP"
		return errorFromReply(line)
	}
	return nil
}

// Noop performs one empty round trip — the cheapest liveness probe the
// protocol offers (one line each way, no allocation server-side).
func (c *Client) Noop() error {
	c.SendNoop()
	if err := c.Flush(); err != nil {
		return err
	}
	return c.ReadNoopReply()
}

// SendFlushAll queues a flush_all without flushing the write buffer.
func (c *Client) SendFlushAll() { c.bw.WriteString("flush_all\r\n") }

// ReadFlushAllReply consumes one flush_all response.
func (c *Client) ReadFlushAllReply() error {
	c.beginReply()
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if !bytes.Equal(line, replyOk[:2]) { // "OK"
		return errorFromReply(line)
	}
	return nil
}

// FlushAll drops every entry the server holds. Flushing is idempotent
// (an empty cache flushed again is still empty), so callers may retry it
// freely on ambiguous failures — the property replica reintegration
// relies on.
func (c *Client) FlushAll() error {
	c.SendFlushAll()
	if err := c.Flush(); err != nil {
		return err
	}
	return c.ReadFlushAllReply()
}

// Set stores val under key with the given flags and exptime.
func (c *Client) Set(key []byte, flags uint32, exptime int64, val []byte) error {
	c.SendSet(key, flags, exptime, val)
	if err := c.Flush(); err != nil {
		return err
	}
	return c.ReadSetReply()
}

// ReadSetReply consumes one set response.
func (c *Client) ReadSetReply() error {
	c.beginReply()
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if !bytes.Equal(line, replyStored[:6]) { // "STORED"
		return errorFromReply(line)
	}
	return nil
}

// Delete removes key, reporting whether it was resident.
func (c *Client) Delete(key []byte) (bool, error) {
	c.SendDelete(key)
	if err := c.Flush(); err != nil {
		return false, err
	}
	return c.ReadDeleteReply()
}

// ReadDeleteReply consumes one delete response.
func (c *Client) ReadDeleteReply() (bool, error) {
	c.beginReply()
	line, err := c.readLine()
	if err != nil {
		return false, err
	}
	switch {
	case bytes.Equal(line, replyDeleted[:7]): // "DELETED"
		return true, nil
	case bytes.Equal(line, replyNotFound[:9]): // "NOT_FOUND"
		return false, nil
	default:
		return false, errorFromReply(line)
	}
}

// Stats fetches the server's STAT lines as a name → value map.
func (c *Client) Stats() (map[string]string, error) {
	c.bw.WriteString("stats\r\n")
	if err := c.Flush(); err != nil {
		return nil, err
	}
	c.beginReply()
	stats := make(map[string]string)
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if bytes.Equal(line, replyEnd[:3]) {
			return stats, nil
		}
		if !bytes.HasPrefix(line, statPrefix) {
			return nil, errorFromReply(line)
		}
		rest := line[len(statPrefix):]
		name, value := nextField(rest)
		stats[string(name)] = string(value)
	}
}
