// Package kvproto implements the subset of the memcached text protocol
// spoken by cmd/adaptcached, cmd/kvrouter and cmd/kvloadgen: get
// (single- and multi-key "get k1 k2 ..."), gets (the same, with each
// VALUE line carrying the entry's 64-bit cas unique), set, cas
// (compare-and-swap against a unique obtained from gets, replying
// STORED, EXISTS, or NOT_FOUND), delete, stats, quit,
// a one-line noop used by health probes, and flush_all (full-cache
// invalidation, issued by the cluster before reintegrating a recovered
// node so it can never serve stale versions). Keys are
// printable ASCII up to 250 bytes; values are arbitrary bytes up to
// MaxValueBytes; set's flags are echoed back on get, and exptime
// carries memcached TTL semantics (0 = never expire, values up to 30
// days are relative seconds, larger values are an absolute unix time,
// negative means already expired) which the cache honors end to end.
//
// The server-side Reader reuses its buffers across requests: Request.Key,
// Request.Keys and Request.Value alias internal storage and are valid
// only until the next call to Next. Recoverable protocol violations (oversized line,
// unknown command, malformed header, oversized value) resynchronize the
// stream and return a *ClientError that the server reports without
// dropping the connection; any other error means the stream state is
// unknown and the connection must close.
package kvproto

import (
	"bufio"
	"errors"
	"io"
	"time"
)

// Protocol limits. MaxKeyBytes matches memcached; MaxValueBytes keeps one
// request's buffered value bounded.
const (
	MaxKeyBytes   = 250
	MaxValueBytes = 1 << 20
	// MaxGetKeys bounds the keys in one multi-key get; the command line
	// length cap bounds it again in practice.
	MaxGetKeys = 128
	// maxDrainBytes is the largest data chunk an oversized set may
	// announce and still be drained past, memcached's own bound: the
	// chunk and its CRLF fit a signed 32-bit length. A longer
	// announcement is not a value that overshot MaxValueBytes but a
	// stream that cannot be resynchronized.
	maxDrainBytes = 1<<31 - 1 - 2
)

// Op identifies a request type.
type Op uint8

const (
	OpInvalid Op = iota
	OpGet
	OpSet
	OpDelete
	OpStats
	OpQuit
	OpNoop
	OpFlushAll
	OpGets
	OpCas
)

func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpGets:
		return "gets"
	case OpSet:
		return "set"
	case OpCas:
		return "cas"
	case OpDelete:
		return "delete"
	case OpStats:
		return "stats"
	case OpQuit:
		return "quit"
	case OpNoop:
		return "noop"
	case OpFlushAll:
		return "flush_all"
	default:
		return "invalid"
	}
}

// Request is one parsed client request. Key, Keys and Value alias the
// Reader's internal buffers.
type Request struct {
	Op      Op
	Key     []byte   // first (or only) key
	Keys    [][]byte // OpGet/OpGets: every key on the line, in order (len ≥ 1)
	Value   []byte   // OpSet/OpCas only
	Flags   uint32   // OpSet/OpCas only; echoed back on get
	Exptime int64    // OpSet/OpCas only; memcached TTL semantics (see package doc)
	Cas     uint64   // OpCas only: the unique obtained from a prior gets
}

// ClientError is a recoverable protocol violation: the Reader has already
// resynchronized to the next line, so the server may report it (as a
// CLIENT_ERROR reply) and keep serving the connection.
type ClientError struct{ Msg string }

func (e *ClientError) Error() string { return "kvproto: client error: " + e.Msg }

// ServerError is a "SERVER_ERROR <msg>" reply: the server refused or
// failed the request (overload shed, admission bound), but the reply was
// a well-formed line, so the stream remains synchronized.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "kvproto: server error: " + e.Msg }

// BusyMsg is the ServerError message a shedding server rejects new
// connections with; the request was never processed, so retrying it on a
// fresh connection after backoff is always safe.
const BusyMsg = "busy"

// IsBusy reports whether err is the server's overload-shedding reply.
func IsBusy(err error) bool {
	var se *ServerError
	return errors.As(err, &se) && se.Msg == BusyMsg
}

// Recoverable classifies a client-side error: true means the reply was a
// well-formed error line (*ClientError or *ServerError) and the
// connection is still synchronized and usable; false means the stream is
// dead (I/O failure, timeout, truncated or desynchronized reply) and the
// connection must be discarded.
func Recoverable(err error) bool {
	return errors.As(err, new(*ClientError)) || errors.As(err, new(*ServerError))
}

// RelativeLimit is the memcached TTL pivot: an exptime at or below 30
// days of seconds is relative to now, anything larger is an absolute
// unix time.
const RelativeLimit = 60 * 60 * 24 * 30

// AbsoluteExptime normalizes an exptime to its absolute form: 0 stays 0
// (never expires), any negative collapses to -1 (already expired), a
// relative value becomes now's unix time plus the offset, and an
// already-absolute value passes through unchanged. The function is
// idempotent — a normalized value above RelativeLimit re-normalizes to
// itself — so a retry or a replica fan-out can normalize again without
// re-relativizing the deadline.
func AbsoluteExptime(exptime int64, now time.Time) int64 {
	switch {
	case exptime == 0:
		return 0
	case exptime < 0:
		return -1
	case exptime <= RelativeLimit:
		return now.Unix() + exptime
	default:
		return exptime
	}
}

// DeadlineNanos converts an exptime to the unix-nanosecond deadline the
// cache stores: 0 means never, any negative yields 1 (a deadline in the
// distant past, i.e. already expired), and positive values resolve per
// the RelativeLimit pivot. Exptime magnitudes are bounded to 32 bits by
// parseSet, so the nanosecond conversion cannot overflow int64.
func DeadlineNanos(exptime int64, now time.Time) int64 {
	switch {
	case exptime == 0:
		return 0
	case exptime < 0:
		return 1
	case exptime <= RelativeLimit:
		return now.Add(time.Duration(exptime) * time.Second).UnixNano()
	default:
		return exptime * int64(time.Second)
	}
}

// Pre-built recoverable errors for the non-parameterized violations, so
// the hot parse path does not allocate to reject garbage.
var (
	errUnknownCommand = &ClientError{Msg: "unknown command"}
	errBadCommandLine = &ClientError{Msg: "malformed command line"}
	errLineTooLong    = &ClientError{Msg: "command line too long"}
	errBadKey         = &ClientError{Msg: "invalid key"}
	errTooManyKeys    = &ClientError{Msg: "too many keys"}
	errObjectTooLarge = &ClientError{Msg: "object too large"}
)

// ErrCorrupt means the stream cannot be resynchronized (a set's data chunk
// did not end in CRLF, or announced more than can be drained); the
// connection must close.
var ErrCorrupt = errors.New("kvproto: corrupt stream")

// Reader parses requests from a connection.
type Reader struct {
	br   *bufio.Reader
	key  []byte   // reusable key buffer for OpSet/OpCas
	val  []byte   // reusable value buffer for OpSet/OpCas
	keys [][]byte // reusable key-slice buffer for OpGet
}

// NewReader wraps r. The internal buffer comfortably holds a maximal
// command line (key 250 bytes plus numeric fields).
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1024)}
}

// Reset repoints the Reader at a new connection, retaining buffers.
func (rd *Reader) Reset(r io.Reader) { rd.br.Reset(r) }

// Buffered returns the number of request bytes already read from the
// connection but not yet parsed. A server can elide the reply flush while
// this is non-zero: the client is pipelining and cannot be blocked on this
// reply, so replies batch up and go out in one write.
func (rd *Reader) Buffered() int { return rd.br.Buffered() }

// readLine returns the next CRLF- (or bare LF-) terminated line without its
// terminator. An over-long line is consumed to its end and reported as
// errLineTooLong, leaving the stream synchronized.
func (rd *Reader) readLine() ([]byte, error) {
	line, err := rd.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		for err == bufio.ErrBufferFull {
			_, err = rd.br.ReadSlice('\n')
		}
		if err != nil {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, errLineTooLong
	}
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err // io.EOF: clean close between requests
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// nextField splits the leading space-delimited field off line. Consecutive
// spaces delimit empty fields, which every caller rejects as malformed.
func nextField(line []byte) (field, rest []byte) {
	for i := 0; i < len(line); i++ {
		if line[i] == ' ' {
			return line[:i], line[i+1:]
		}
	}
	return line, nil
}

// parseUint is an allocation-free decimal parser with overflow checking.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (^uint64(0)-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// validKey enforces the protocol's key shape: 1..MaxKeyBytes printable
// non-space ASCII bytes. (Spaces are structurally impossible — they
// delimit fields — but control bytes must be rejected explicitly.)
func validKey(k []byte) bool {
	if len(k) == 0 || len(k) > MaxKeyBytes {
		return false
	}
	for _, c := range k {
		if c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// commandIs reports whether b equals cmd ASCII-case-insensitively. Commands
// are short, so a byte loop beats any allocating fold.
func commandIs(b []byte, cmd string) bool {
	if len(b) != len(cmd) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != cmd[i] {
			return false
		}
	}
	return true
}

// Next parses one request into req. It returns io.EOF on clean connection
// close, a *ClientError for recoverable violations (stream already
// resynchronized), and ErrCorrupt or an I/O error when the connection must
// close. req's slices are valid until the next call.
func (rd *Reader) Next(req *Request) error {
	*req = Request{}
	line, err := rd.readLine()
	if err != nil {
		return err
	}
	cmd, rest := nextField(line)
	switch {
	case commandIs(cmd, "get"):
		req.Op = OpGet
		return rd.parseKeys(req, rest)

	case commandIs(cmd, "gets"):
		req.Op = OpGets
		return rd.parseKeys(req, rest)

	case commandIs(cmd, "delete"):
		req.Op = OpDelete
		key, tail := nextField(rest)
		if len(tail) != 0 || !validKey(key) {
			return errBadKey
		}
		req.Key = key
		return nil

	case commandIs(cmd, "set"):
		req.Op = OpSet
		return rd.parseStore(req, rest, false)

	case commandIs(cmd, "cas"):
		req.Op = OpCas
		return rd.parseStore(req, rest, true)

	case commandIs(cmd, "stats"):
		if len(rest) != 0 {
			return errBadCommandLine
		}
		req.Op = OpStats
		return nil

	case commandIs(cmd, "quit"):
		if len(rest) != 0 {
			return errBadCommandLine
		}
		req.Op = OpQuit
		return nil

	case commandIs(cmd, "noop"):
		if len(rest) != 0 {
			return errBadCommandLine
		}
		req.Op = OpNoop
		return nil

	case commandIs(cmd, "flush_all"):
		// memcached's optional delay argument is not supported: a cache
		// whose reintegration safety depends on flush_all must not be
		// able to schedule the flush for later.
		if len(rest) != 0 {
			return errBadCommandLine
		}
		req.Op = OpFlushAll
		return nil

	default:
		return errUnknownCommand
	}
}

// parseKeys handles the key list shared by "get" and "gets": one or more
// space-delimited keys, each validated, capped at MaxGetKeys.
func (rd *Reader) parseKeys(req *Request, rest []byte) error {
	keys := rd.keys[:0]
	for {
		key, tail := nextField(rest)
		if !validKey(key) {
			return errBadKey
		}
		if len(keys) == MaxGetKeys {
			return errTooManyKeys
		}
		keys = append(keys, key)
		if len(tail) == 0 {
			break
		}
		rest = tail
	}
	rd.keys = keys
	req.Key = keys[0]
	req.Keys = keys
	return nil
}

// parseStore handles "set <key> <flags> <exptime> <bytes>" and
// "cas <key> <flags> <exptime> <bytes> <casid>" plus the following data
// chunk. exptime follows memcached: 0 never expires, magnitudes up to 32
// bits are accepted (relative seconds up to RelativeLimit, absolute unix
// time above it), and an optional leading '-' marks the value already
// expired. The cas unique is a full 64-bit decimal; overflow, a missing
// field, or trailing junk reject the line before any chunk is consumed.
// On an oversized value the chunk is drained so the error is recoverable,
// up to maxDrainBytes; past that, or on a missing CRLF terminator, the
// stream is corrupt.
func (rd *Reader) parseStore(req *Request, rest []byte, wantCas bool) error {
	key, rest := nextField(rest)
	flagsB, rest := nextField(rest)
	exptimeB, rest := nextField(rest)
	bytesB, tail := nextField(rest)
	var casB []byte
	if wantCas {
		casB, tail = nextField(tail)
	}
	if len(tail) != 0 {
		return errBadCommandLine
	}
	negExp := false
	if len(exptimeB) > 1 && exptimeB[0] == '-' {
		negExp = true
		exptimeB = exptimeB[1:]
	}
	flags, okF := parseUint(flagsB)
	exptime, okE := parseUint(exptimeB)
	size, okB := parseUint(bytesB)
	if !okF || !okE || !okB || flags > 0xffffffff || exptime > 0xffffffff {
		return errBadCommandLine
	}
	var casid uint64
	if wantCas {
		var okC bool
		casid, okC = parseUint(casB)
		if !okC {
			return errBadCommandLine
		}
	}
	keyOK := validKey(key)
	if !keyOK || size > MaxValueBytes {
		if size > maxDrainBytes {
			return ErrCorrupt
		}
		// Drain the data chunk so the violation stays recoverable.
		if err := rd.discard(int64(size) + 2); err != nil {
			return err
		}
		if !keyOK {
			return errBadKey
		}
		return errObjectTooLarge
	}
	// The key aliases the bufio buffer, which reading the data chunk may
	// refill: copy it out first.
	rd.key = append(rd.key[:0], key...)
	if cap(rd.val) < int(size)+2 {
		rd.val = make([]byte, size+2)
	}
	buf := rd.val[:size+2]
	if _, err := io.ReadFull(rd.br, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if buf[size] != '\r' || buf[size+1] != '\n' {
		return ErrCorrupt
	}
	req.Key = rd.key
	req.Flags = uint32(flags)
	req.Exptime = int64(exptime)
	if negExp {
		req.Exptime = -req.Exptime
	}
	req.Value = buf[:size]
	req.Cas = casid
	return nil
}

// discard consumes n bytes, mapping EOF to ErrUnexpectedEOF.
func (rd *Reader) discard(n int64) error {
	if _, err := rd.br.Discard(int(n)); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// --- Reply writing ---------------------------------------------------------

// Canonical reply lines.
var (
	replyEnd       = []byte("END\r\n")
	replyNoop      = []byte("NOOP\r\n")
	replyOk        = []byte("OK\r\n")
	replyStored    = []byte("STORED\r\n")
	replyExists    = []byte("EXISTS\r\n")
	replyDeleted   = []byte("DELETED\r\n")
	replyNotFound  = []byte("NOT_FOUND\r\n")
	replyError     = []byte("ERROR\r\n")
	crlf           = []byte("\r\n")
	valuePrefix    = []byte("VALUE ")
	statPrefix     = []byte("STAT ")
	clientErrorPfx = []byte("CLIENT_ERROR ")
	serverErrorPfx = []byte("SERVER_ERROR ")
)

// BusyLine is the raw overload-shedding reply, for servers that must
// write it before any bufio machinery exists (shed at accept time).
var BusyLine = []byte("SERVER_ERROR " + BusyMsg + "\r\n")

// WriteValue writes "VALUE <key> <flags> <len>\r\n<val>\r\n". The caller
// terminates the get response with WriteEnd.
func WriteValue(w *bufio.Writer, key []byte, flags uint32, val []byte) {
	w.Write(valuePrefix)
	w.Write(key)
	w.WriteByte(' ')
	writeUint(w, uint64(flags))
	w.WriteByte(' ')
	writeUint(w, uint64(len(val)))
	w.Write(crlf)
	w.Write(val)
	w.Write(crlf)
}

// WriteValueString is WriteValue for servers holding the key as a
// string (batched dispatch copies keys out of the parse buffers).
func WriteValueString(w *bufio.Writer, key string, flags uint32, val []byte) {
	w.Write(valuePrefix)
	w.WriteString(key)
	w.WriteByte(' ')
	writeUint(w, uint64(flags))
	w.WriteByte(' ')
	writeUint(w, uint64(len(val)))
	w.Write(crlf)
	w.Write(val)
	w.Write(crlf)
}

// WriteValueCas writes "VALUE <key> <flags> <len> <casid>\r\n<val>\r\n" —
// the gets reply form, carrying the entry's cas unique. The caller
// terminates the response with WriteEnd.
func WriteValueCas(w *bufio.Writer, key []byte, flags uint32, casid uint64, val []byte) {
	w.Write(valuePrefix)
	w.Write(key)
	w.WriteByte(' ')
	writeUint(w, uint64(flags))
	w.WriteByte(' ')
	writeUint(w, uint64(len(val)))
	w.WriteByte(' ')
	writeUint(w, casid)
	w.Write(crlf)
	w.Write(val)
	w.Write(crlf)
}

// WriteValueCasString is WriteValueCas for servers holding the key as a
// string (batched dispatch copies keys out of the parse buffers).
func WriteValueCasString(w *bufio.Writer, key string, flags uint32, casid uint64, val []byte) {
	w.Write(valuePrefix)
	w.WriteString(key)
	w.WriteByte(' ')
	writeUint(w, uint64(flags))
	w.WriteByte(' ')
	writeUint(w, uint64(len(val)))
	w.WriteByte(' ')
	writeUint(w, casid)
	w.Write(crlf)
	w.Write(val)
	w.Write(crlf)
}

// AppendValueHeader appends "VALUE <key> <flags> <n>\r\n" to dst and
// returns the extended slice. Servers shipping large values via
// vectored writes build the header in caller-pooled scratch with this
// instead of copying the payload through a bufio.Writer.
func AppendValueHeader(dst []byte, key string, flags uint32, n int) []byte {
	dst = append(dst, valuePrefix...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = appendUint(dst, uint64(flags))
	dst = append(dst, ' ')
	dst = appendUint(dst, uint64(n))
	return append(dst, crlf...)
}

// AppendValueCasHeader is AppendValueHeader with the cas unique as the
// fourth field — the gets reply form, for vectored writes.
func AppendValueCasHeader(dst []byte, key string, flags uint32, n int, casid uint64) []byte {
	dst = append(dst, valuePrefix...)
	dst = append(dst, key...)
	dst = append(dst, ' ')
	dst = appendUint(dst, uint64(flags))
	dst = append(dst, ' ')
	dst = appendUint(dst, uint64(n))
	dst = append(dst, ' ')
	dst = appendUint(dst, casid)
	return append(dst, crlf...)
}

// EndLine is the raw "END\r\n" terminator, for vectored get replies.
var EndLine = replyEnd

// CRLF is the raw value terminator, for vectored get replies.
var CRLF = crlf

// WriteEnd terminates a get or stats response.
func WriteEnd(w *bufio.Writer) { w.Write(replyEnd) }

// WriteNoop answers a noop: one line, no allocation, no cache touch. It
// exists so health probes cost a single line round-trip instead of a
// full stats map.
func WriteNoop(w *bufio.Writer) { w.Write(replyNoop) }

// WriteOk acknowledges a flush_all.
func WriteOk(w *bufio.Writer) { w.Write(replyOk) }

// WriteStored acknowledges a set (or a winning cas).
func WriteStored(w *bufio.Writer) { w.Write(replyStored) }

// WriteExists answers a cas whose unique no longer matches: the entry was
// modified since the gets that produced the id.
func WriteExists(w *bufio.Writer) { w.Write(replyExists) }

// WriteDeleted acknowledges a successful delete.
func WriteDeleted(w *bufio.Writer) { w.Write(replyDeleted) }

// WriteNotFound answers a delete of an absent key.
func WriteNotFound(w *bufio.Writer) { w.Write(replyNotFound) }

// WriteError reports an unknown command.
func WriteError(w *bufio.Writer) { w.Write(replyError) }

// WriteClientError reports a recoverable protocol violation.
func WriteClientError(w *bufio.Writer, msg string) {
	w.Write(clientErrorPfx)
	w.WriteString(msg)
	w.Write(crlf)
}

// WriteServerError reports a server-side refusal (shed, admission bound)
// on an otherwise healthy stream.
func WriteServerError(w *bufio.Writer, msg string) {
	w.Write(serverErrorPfx)
	w.WriteString(msg)
	w.Write(crlf)
}

// WriteStat writes one "STAT <name> <value>\r\n" line.
func WriteStat(w *bufio.Writer, name string, value uint64) {
	w.Write(statPrefix)
	w.WriteString(name)
	w.WriteByte(' ')
	writeUint(w, value)
	w.Write(crlf)
}

// WriteStatStr writes one "STAT <name> <value>\r\n" line with a string
// value (hit ratios, policy names).
func WriteStatStr(w *bufio.Writer, name, value string) {
	w.Write(statPrefix)
	w.WriteString(name)
	w.WriteByte(' ')
	w.WriteString(value)
	w.Write(crlf)
}

// writeUint renders n in decimal. Each call allocates: buf escapes,
// because bufio.Writer.Write may hand its argument to the underlying
// writer. Writing into w.AvailableBuffer() would not allocate, but this
// garbage currently paces the GC; removing it spread the live cache
// values over more heap spans and raised cmd/kvbench's
// heap_bytes_per_user_byte past its bound (see CHANGES.md).
func writeUint(w *bufio.Writer, n uint64) {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	w.Write(buf[i:])
}

// writeInt renders n in signed decimal, allocating as writeUint does
// (client-side exptime serialization; negative exptimes mean already
// expired).
func writeInt(w *bufio.Writer, n int64) {
	if n < 0 {
		w.WriteByte('-')
		writeUint(w, uint64(-n))
		return
	}
	writeUint(w, uint64(n))
}

// appendUint renders n in decimal onto dst, allocating only when dst
// must grow.
func appendUint(dst []byte, n uint64) []byte {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(dst, buf[i:]...)
}

// formatUint is writeUint for callers building strings (client side).
func formatUint(n uint64) string {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return string(buf[i:])
}
