package kvproto

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
)

// ErrUnacked marks an operation whose request bytes may have reached the
// server but whose acknowledgment was never read: the operation may or
// may not have been applied. ReconnectClient never replays such
// operations — replaying a set or delete the server already applied would
// silently reorder writes, and a replayed winning cas would falsely
// report EXISTS — so the ambiguity is surfaced to the caller, who owns
// the idempotency decision.
var ErrUnacked = errors.New("kvproto: request sent but not acknowledged")

// ReconnectConfig tunes ReconnectClient's redial and retry behavior.
// Zero values take the defaults noted on each field.
type ReconnectConfig struct {
	DialTimeout time.Duration // per-dial bound (default 2s)
	// ReadTimeout bounds one reply: it is armed at the reply's first
	// network read and covers all of its reads (default 5s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration // per-flush bound (default 5s)

	MaxAttempts int           // attempts per operation, including the first (default 8)
	BaseBackoff time.Duration // first retry delay (default 5ms)
	MaxBackoff  time.Duration // backoff cap (default 500ms)
	Seed        uint64        // jitter seed; same seed, same backoff schedule

	// Counters, when non-nil, receives every outcome in addition to the
	// client's own tallies. Share one ReconnectCounters across many
	// clients to aggregate a whole fleet's retry behavior into one
	// metrics registry.
	Counters *ReconnectCounters
}

// ReconnectCounters aggregates retry outcomes across ReconnectClients.
// Individual fields may be nil (only the wired ones are counted); the
// counters are atomic, so clients on different goroutines may share one.
type ReconnectCounters struct {
	Redials   *metrics.Counter // connections (re)established
	Retries   *metrics.Counter // attempts beyond each operation's first
	Unacked   *metrics.Counter // sets/cas/deletes abandoned as ErrUnacked
	Exhausted *metrics.Counter // operations that failed after MaxAttempts
}

func inc(c *metrics.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (c ReconnectConfig) withDefaults() ReconnectConfig {
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 5 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 8
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 5 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 500 * time.Millisecond
	}
	return c
}

// ReconnectClient is a Client that survives a flaky peer: it redials on
// dead-stream errors with capped exponential backoff plus deterministic
// jitter. Idempotent operations (Get, Gets, MultiGet, Noop, FlushAll,
// Stats) run under retry and are replayed transparently; non-idempotent
// ones (Set, SetRun, Delete, Cas) run under once, which retries only
// while the request provably never reached processing (dial failure,
// SERVER_ERROR busy shed). Once a write becomes ambiguous it fails with
// ErrUnacked and the next operation runs on a fresh connection; in a
// pipelined SetRun, only the sets that never got a reply do.
//
// Like Client, a ReconnectClient serves one goroutine.
type ReconnectClient struct {
	addr string
	cfg  ReconnectConfig
	c    *Client
	jit  uint64

	// Redials, Retries, Unacked, and Exhausted count connection
	// re-establishments, retried attempts, operations abandoned as
	// ErrUnacked, and operations that ran out of attempts — for
	// soak-driver reporting. ReconnectConfig.Counters mirrors them into
	// shared metrics.
	Redials   uint64
	Retries   uint64
	Unacked   uint64
	Exhausted uint64
}

func (rc *ReconnectClient) countRetry() {
	rc.Retries++
	if rc.cfg.Counters != nil {
		inc(rc.cfg.Counters.Retries)
	}
}

func (rc *ReconnectClient) countUnacked() {
	rc.Unacked++
	if rc.cfg.Counters != nil {
		inc(rc.cfg.Counters.Unacked)
	}
}

func (rc *ReconnectClient) countExhausted() {
	rc.Exhausted++
	if rc.cfg.Counters != nil {
		inc(rc.cfg.Counters.Exhausted)
	}
}

// NewReconnect builds a client for addr; the first connection is dialed
// lazily by the first operation.
func NewReconnect(addr string, cfg ReconnectConfig) *ReconnectClient {
	cfg = cfg.withDefaults()
	return &ReconnectClient{addr: addr, cfg: cfg, jit: cfg.Seed | 1}
}

// client returns the live connection, dialing if necessary.
func (rc *ReconnectClient) client() (*Client, error) {
	if rc.c != nil {
		return rc.c, nil
	}
	c, err := DialTimeout(rc.addr, rc.cfg.DialTimeout, rc.cfg.ReadTimeout, rc.cfg.WriteTimeout)
	if err != nil {
		return nil, err
	}
	rc.Redials++
	if rc.cfg.Counters != nil {
		inc(rc.cfg.Counters.Redials)
	}
	rc.c = c
	return c, nil
}

// drop discards a dead connection so the next operation redials.
func (rc *ReconnectClient) drop() {
	if rc.c != nil {
		rc.c.CloseNow()
		rc.c = nil
	}
}

// backoff sleeps for min(MaxBackoff, BaseBackoff<<n) with jitter drawn
// from a seeded xorshift stream: the delay lands in [d/2, d), decorrelating
// retry storms while keeping the schedule reproducible for a given seed.
func (rc *ReconnectClient) backoff(n int) {
	if n > 20 {
		n = 20
	}
	d := rc.cfg.BaseBackoff << n
	if d > rc.cfg.MaxBackoff || d <= 0 {
		d = rc.cfg.MaxBackoff
	}
	rc.jit ^= rc.jit << 13
	rc.jit ^= rc.jit >> 7
	rc.jit ^= rc.jit << 17
	time.Sleep(d/2 + time.Duration(rc.jit%uint64(d/2+1)))
}

// retry runs an idempotent operation: every attempt that fails on a
// dial error, a busy shed, or a dead stream drops the connection and is
// replayed on a fresh one after backoff, since replaying a read (or a
// flush) cannot change what the caller observes. A recoverable protocol
// rejection (bad key) returns at once: retrying a malformed request
// cannot help.
func (rc *ReconnectClient) retry(op string, fn func(*Client) error) error {
	var lastErr error
	for a := 0; a < rc.cfg.MaxAttempts; a++ {
		if a > 0 {
			rc.countRetry()
			rc.backoff(a - 1)
		}
		c, err := rc.client()
		if err != nil {
			lastErr = err
			continue
		}
		if err = fn(c); err == nil {
			return nil
		}
		lastErr = err
		if Recoverable(err) && !IsBusy(err) {
			return err
		}
		rc.drop() // busy shed or dead stream: fresh connection next time
	}
	rc.countExhausted()
	return fmt.Errorf("kvproto: %s failed after %d attempts: %w", op, rc.cfg.MaxAttempts, lastErr)
}

// once runs n at-most-once requests (sets, or a lone cas or delete)
// pipelined on one connection, in order, and is the one home of the
// never-replay contract. send queues request i and read consumes its
// reply; errs[i] receives request i's outcome.
//
// The run is retried whole only while it provably never ran: the dial
// failed (nothing was sent) or the server shed the connection busy (its
// first reply, written before any processing). A well-formed error
// reply fails only its own request. Any other failure after the run may
// have been flushed is ambiguous: if the stream dies after k replies,
// the first k keep their outcomes, and every later request may or may
// not have been applied — each fails as ErrUnacked, is counted once and
// never replayed, and the next operation runs on a fresh connection.
//
// once returns the error that ended the run early (the ambiguity, or
// attempt exhaustion), or nil when every request got a reply.
func (rc *ReconnectClient) once(op string, n int, send func(c *Client, i int), read func(c *Client, i int) error, errs []error) error {
	var lastErr error
	for a := 0; a < rc.cfg.MaxAttempts; a++ {
		if a > 0 {
			rc.countRetry()
			rc.backoff(a - 1)
		}
		c, err := rc.client()
		if err != nil {
			lastErr = err // nothing sent: safe to retry
			continue
		}
		for i := 0; i < n; i++ {
			send(c, i)
		}
		err = c.Flush()
		k := 0 // replies read
		for ; err == nil && k < n; k++ {
			rerr := read(c, k)
			if rerr != nil && (!Recoverable(rerr) || k == 0 && IsBusy(rerr)) {
				err = rerr
				break
			}
			errs[k] = rerr // nil, or a rejection of this request alone
		}
		if err == nil {
			return nil
		}
		rc.drop()
		if k == 0 && IsBusy(err) {
			lastErr = err // shed before processing: not applied, safe to retry
			continue
		}
		err = fmt.Errorf("%w (%s): %v", ErrUnacked, op, err)
		for ; k < n; k++ {
			rc.countUnacked()
			errs[k] = err
		}
		return err
	}
	err := fmt.Errorf("kvproto: %s failed after %d attempts: %w", op, rc.cfg.MaxAttempts, lastErr)
	for i := 0; i < n; i++ {
		rc.countExhausted()
		errs[i] = err
	}
	return err
}

// Get fetches key under retry. The returned slice is valid until the
// next call.
func (rc *ReconnectClient) Get(key []byte) (val []byte, ok bool, err error) {
	err = rc.retry("get", func(c *Client) (err error) {
		val, ok, err = c.Get(key)
		return err
	})
	if err != nil {
		return nil, false, err
	}
	return val, ok, nil
}

// Gets fetches key with its flags and cas unique under retry. The
// returned slice is valid until the next call.
func (rc *ReconnectClient) Gets(key []byte) (val []byte, flags uint32, casid uint64, ok bool, err error) {
	err = rc.retry("gets", func(c *Client) (err error) {
		val, flags, casid, ok, err = c.Gets(key)
		return err
	})
	if err != nil {
		return nil, 0, 0, false, err
	}
	return val, flags, casid, ok, nil
}

// Cas swaps key's value iff its unique still equals casid, at most once:
// a replayed cas that the server had already applied would consume its
// own unique and come back EXISTS, reporting a false conflict for a swap
// that actually won. exptime is normalized as in Set.
func (rc *ReconnectClient) Cas(key []byte, flags uint32, exptime int64, casid uint64, val []byte) (CasStatus, error) {
	exptime = AbsoluteExptime(exptime, time.Now())
	var st CasStatus
	var errs [1]error
	rc.once("cas", 1,
		func(c *Client, _ int) { c.SendCas(key, flags, exptime, casid, val) },
		func(c *Client, _ int) (err error) {
			st, err = c.ReadCasReply()
			return err
		}, errs[:])
	if errs[0] != nil {
		return CasNotFound, errs[0]
	}
	return st, nil
}

// Set stores val under key, at most once: it is SetRun with a run of
// one.
func (rc *ReconnectClient) Set(key []byte, flags uint32, exptime int64, val []byte) error {
	var errs [1]error
	rc.SetRun([]SetReq{{Key: key, Value: val, Flags: flags, Exptime: exptime}}, errs[:])
	return errs[0]
}

// SetRun stores a run of sets pipelined on one connection in request
// order — one flush, then the replies — each at most once under once's
// contract: errs[i] receives set i's outcome, and if the connection
// fails once the run may have been flushed, every set still without a
// reply fails as ErrUnacked and is never replayed. It returns nil when
// every set got a reply (a reply may still be a rejection, in errs),
// else the error that ended the run early. Replies are read only after
// the whole run is written, so callers keep runs bounded.
//
// Relative exptimes are normalized to their absolute form once, before
// the first attempt, so a retry carries the deadline the original
// attempt would have set — a retry seconds later must not
// re-relativize the TTL and silently extend the value's life.
func (rc *ReconnectClient) SetRun(sets []SetReq, errs []error) error {
	now := time.Now()
	return rc.once("set", len(sets),
		func(c *Client, i int) {
			s := &sets[i]
			c.SendSet(s.Key, s.Flags, AbsoluteExptime(s.Exptime, now), s.Value)
		},
		func(c *Client, _ int) error { return c.ReadSetReply() },
		errs)
}

// Delete removes key, at most once like Set (a replayed delete could
// erase a newer concurrent write's visibility of state).
func (rc *ReconnectClient) Delete(key []byte) (found bool, err error) {
	var errs [1]error
	rc.once("delete", 1,
		func(c *Client, _ int) { c.SendDelete(key) },
		func(c *Client, _ int) (err error) {
			found, err = c.ReadDeleteReply()
			return err
		}, errs[:])
	if errs[0] != nil {
		return false, errs[0]
	}
	return found, nil
}

// MultiGet fetches several keys (any count — requests are chunked at
// MaxGetKeys) under retry. Because a retry replays the whole burst, fn
// may be invoked more than once for the same index; callers must make
// the callback idempotent (last write wins is the natural contract). val
// aliases an internal buffer valid only until fn returns.
func (rc *ReconnectClient) MultiGet(keys [][]byte, fn func(i int, flags uint32, val []byte)) error {
	return rc.retry("multiget", func(c *Client) error {
		return c.MultiGetChunked(keys, fn)
	})
}

// MultiGets is MultiGet for gets: each hit also carries the entry's cas
// unique, under the same retry and callback contract.
func (rc *ReconnectClient) MultiGets(keys [][]byte, fn func(i int, flags uint32, casid uint64, val []byte)) error {
	return rc.retry("multigets", func(c *Client) error {
		return c.getChunked(keys, true, fn)
	})
}

// Noop performs one empty round trip under retry. Health probers
// typically run it with MaxAttempts 1: the prober owns the retry
// schedule, the client just reports whether this probe got through.
func (rc *ReconnectClient) Noop() error {
	return rc.retry("noop", (*Client).Noop)
}

// FlushAll drops every entry the peer holds under retry: flushing is
// idempotent (flushing an already-empty cache changes nothing), so an
// ambiguous failure is safely replayed rather than surfaced as
// ErrUnacked.
func (rc *ReconnectClient) FlushAll() error {
	return rc.retry("flush_all", (*Client).FlushAll)
}

// Stats fetches the server's STAT map under retry (read-only).
func (rc *ReconnectClient) Stats() (st map[string]string, err error) {
	err = rc.retry("stats", func(c *Client) (err error) {
		st, err = c.Stats()
		return err
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Close shuts the live connection down, if any.
func (rc *ReconnectClient) Close() error {
	if rc.c == nil {
		return nil
	}
	err := rc.c.Close()
	rc.c = nil
	return err
}
