// Package chaosledger is the verifying-client core of the chaos drill
// (cmd/kvchaos, both topologies): a seeded draw stream, a
// self-checking value codec, and the per-key write history that decides
// whether a value a get returned is legal. Every key has exactly one
// writer, so its history — the newest acknowledged version, the
// ambiguous versions that may still land, and each version's TTL
// deadline — is the whole truth about what a read may return.
package chaosledger

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"time"
)

// Splitmix64 is the finalizer from Vigna's SplitMix64: it scrambles a
// counter into an independent-looking draw. kvcluster's ring finalizes
// its key and vnode hashes with it, so placement depends on these
// constants (TestRingGoldenPlacement pins them).
func Splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TTLGrace pads client-side deadline checks: a server's coarse expiry
// clock advances on sweeper ticks (default 100ms), so a value can
// legally survive its deadline by one tick plus scheduling noise.
const TTLGrace = time.Second

// Rand is a xorshift64 draw stream; the same seed gives the same draws.
type Rand uint64

// NewRand seeds a stream (the low bit is forced so a zero seed works).
func NewRand(seed uint64) Rand { return Rand(seed | 1) }

// Next advances the stream and returns the new draw.
func (r *Rand) Next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = Rand(x)
	return x
}

// EncodeValue renders "<version>|<key>|xxx..." padded to vsize so the
// integrity check covers both identity and payload bytes.
func EncodeValue(ver uint64, key []byte, vsize int) []byte {
	v := make([]byte, 0, vsize+32)
	v = strconv.AppendUint(v, ver, 10)
	v = append(v, '|')
	v = append(v, key...)
	v = append(v, '|')
	for len(v) < vsize {
		v = append(v, 'x')
	}
	return v
}

// DecodeValue parses and integrity-checks an encoded value.
func DecodeValue(v []byte) (ver uint64, key []byte, err error) {
	i := bytes.IndexByte(v, '|')
	if i < 1 {
		return 0, nil, errors.New("missing version field")
	}
	ver, perr := strconv.ParseUint(string(v[:i]), 10, 64)
	if perr != nil {
		return 0, nil, errors.New("bad version field")
	}
	rest := v[i+1:]
	j := bytes.IndexByte(rest, '|')
	if j < 1 {
		return 0, nil, errors.New("missing key field")
	}
	key = rest[:j]
	for _, b := range rest[j+1:] {
		if b != 'x' {
			return 0, nil, errors.New("corrupt padding")
		}
	}
	return ver, key, nil
}

// Key is one key's write history on its single-writer client.
type Key struct {
	Acked     uint64              // newest acknowledged version (0 = none)
	Tried     uint64              // newest attempted version
	Pending   map[uint64]struct{} // unacked versions that may still land
	Deadlines map[uint64]int64    // version -> absolute TTL deadline (unix nanos), TTL keys only
}

// NewKey returns an empty history.
func NewKey() Key {
	return Key{Pending: make(map[uint64]struct{}), Deadlines: make(map[uint64]int64)}
}

// Begin allocates the next version to write.
func (k *Key) Begin() uint64 {
	k.Tried++
	return k.Tried
}

// Expire gives version ver a deadline ttl from now and returns it as an
// ABSOLUTE exptime in unix seconds (always above the relative/absolute
// pivot), so every layer — reconnect replays and replica fan-out
// included — carries the same expiry instant verbatim. The deadline is
// recorded whether or not the write is acked: an unacked write landing
// late still dies at the same instant.
func (k *Key) Expire(ver uint64, ttl time.Duration) int64 {
	expSec := time.Now().Add(ttl).Unix() + 1
	k.Deadlines[ver] = expSec * int64(time.Second)
	return expSec
}

// Expired reports whether version ver's deadline, plus TTLGrace, had
// passed when a read was sent.
func (k *Key) Expired(ver uint64, sent time.Time) bool {
	d, has := k.Deadlines[ver]
	return has && sent.UnixNano() > d+int64(TTLGrace)
}

// Check decodes a value a get of name returned, sent at sent, and
// reports its version. The error, phrased to follow "get <name> ", says
// why the value is illegal whatever the version window: it is corrupt,
// belongs to another key, or was served past its TTL deadline — expired
// means miss.
func (k *Key) Check(name, v []byte, sent time.Time) (uint64, error) {
	ver, key, err := DecodeValue(v)
	if err != nil {
		return 0, fmt.Errorf("returned corrupt value (%v): %q", err, v)
	}
	if !bytes.Equal(key, name) {
		return 0, fmt.Errorf("returned value for key %s", key)
	}
	if k.Expired(ver, sent) {
		return 0, fmt.Errorf("returned version %d at %v past its TTL deadline — expired value served",
			ver, time.Duration(sent.UnixNano()-k.Deadlines[ver]))
	}
	return ver, nil
}

// CheckWindow reports an error unless ver is the newest acknowledged
// version or an ambiguous one that may still land: anything else is an
// acknowledged write lost or a stale value resurrected.
func (k *Key) CheckWindow(ver uint64) error {
	if ver == k.Acked {
		return nil
	}
	if _, inFlight := k.Pending[ver]; inFlight {
		return nil
	}
	return fmt.Errorf("returned version %d; acked %d, pending %v — acknowledged write lost or stale value resurrected",
		ver, k.Acked, k.Pending)
}
