package main

import (
	"bytes"
	"time"

	"repro/internal/kvproto"
)

// ledger is write-ttl-cas's reply verifier. Every key has one writer, the
// connection that owns it, so the ledger knows the last acknowledged
// version of each key and the TTL deadline that version was stored with,
// and it judges every read against them:
//
//   - a hit must return exactly the last acknowledged version;
//   - a miss is legal only when the key is already known absent, its
//     deadline has passed, or the cache has counted an eviction since
//     that version was stored;
//   - a cas must answer STORED, or a NOT_FOUND that the same rule
//     explains. EXISTS is always a violation: nobody else writes the key.
//
// The deadline is taken from the client's send time, which precedes the
// server's own clock reading, and expiry is judged on a clock that lags
// real time; a miss observed before the client's deadline can therefore
// never be a legal expiry.
type ledger struct {
	e         []ledgerEntry
	evictions func() uint64
	scratch   []byte
}

type ledgerEntry struct {
	version  uint64
	deadline time.Time // zero: never expires
	evicted  uint64    // the cache's eviction count when version was stored
	present  bool
}

func newLedger(slots int, evictions func() uint64) ledger {
	return ledger{e: make([]ledgerEntry, slots), evictions: evictions}
}

// stored records an acknowledged store.
func (l *ledger) stored(slot int, version uint64, deadline time.Time) {
	l.e[slot] = ledgerEntry{version: version, deadline: deadline, evicted: l.evictions(), present: true}
}

// hit reports whether val is the last acknowledged version of key.
func (l *ledger) hit(slot int, key, val []byte) bool {
	e := &l.e[slot]
	if !e.present {
		return false
	}
	l.scratch = appendVersioned(l.scratch[:0], key, e.version)
	return bytes.Equal(val, l.scratch)
}

// miss reports whether a miss observed at now is explained, and records
// the key as absent.
func (l *ledger) miss(slot int, now time.Time) bool {
	e := &l.e[slot]
	ok := !e.present ||
		(!e.deadline.IsZero() && !now.Before(e.deadline)) ||
		l.evictions() > e.evicted
	e.present = false
	return ok
}

// cas reports whether a cas reply is explained; a STORED reply records
// version as acknowledged.
func (l *ledger) cas(slot int, st kvproto.CasStatus, version uint64, deadline, now time.Time) bool {
	switch st {
	case kvproto.CasStored:
		l.stored(slot, version, deadline)
		return true
	case kvproto.CasExists:
		return false
	default:
		return l.miss(slot, now)
	}
}
