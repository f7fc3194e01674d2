package adaptivekv

import "sync/atomic"

// pendingRec is one deferred access record: an optimistic Get observed
// (set, tag) without holding the shard lock, and the decision engine
// still owes that access its recency/frequency/shadow bookkeeping.
// cellSeq is the slot's Vyukov sequence number; the record fields are
// published by the producer's cellSeq release-store and consumed under
// the consumer's acquire-load, so the ring is race-detector-clean
// without any per-record locking.
type pendingRec struct {
	cellSeq atomic.Uint64
	set     uint32
	tag     uint64
}

// pendingRing is a fixed-size multi-producer single-consumer queue of
// pending access records (Dmitry Vyukov's bounded MPMC design, with the
// consumer side serialized by the shard lock). Producers never block: a
// full ring rejects the push and the caller counts a drop. head is
// owned by the single consumer; headPub republishes it so producers can
// estimate occupancy for the ¾-full drain trigger.
type pendingRing struct {
	mask    uint64
	tail    atomic.Uint64 // next slot producers will claim
	headPub atomic.Uint64 // consumer position, republished after drains
	head    uint64        // consumer cursor; guarded by shard.mu
	cells   []pendingRec
}

// newPendingRing builds a ring of size cells; size must be a power of two.
func newPendingRing(size int) *pendingRing {
	r := &pendingRing{mask: uint64(size - 1), cells: make([]pendingRec, size)}
	for i := range r.cells {
		r.cells[i].cellSeq.Store(uint64(i))
	}
	return r
}

// push claims a slot and publishes the record. It reports false — without
// blocking or spinning on the consumer — when the ring is full.
func (r *pendingRing) push(set uint32, tag uint64) bool {
	pos := r.tail.Load()
	for {
		cell := &r.cells[pos&r.mask]
		cur := cell.cellSeq.Load()
		switch {
		case cur == pos:
			if r.tail.CompareAndSwap(pos, pos+1) {
				cell.set, cell.tag = set, tag
				cell.cellSeq.Store(pos + 1)
				return true
			}
			pos = r.tail.Load()
		case cur < pos:
			// The consumer has not recycled this slot: full.
			return false
		default:
			pos = r.tail.Load()
		}
	}
}

// pop consumes one record. Single consumer only (callers hold shard.mu).
// A slot claimed by a producer that has not yet published reads as empty,
// which stalls consumption at that slot until the producer finishes —
// records are never skipped or reordered.
func (r *pendingRing) pop() (set uint32, tag uint64, ok bool) {
	cell := &r.cells[r.head&r.mask]
	if cell.cellSeq.Load() != r.head+1 {
		return 0, 0, false
	}
	set, tag = cell.set, cell.tag
	cell.cellSeq.Store(r.head + r.mask + 1)
	r.head++
	return set, tag, true
}

// occupancy estimates how many records are queued. It races with
// concurrent pushes and drains, which is fine: it only steers the
// best-effort ¾-full drain trigger.
func (r *pendingRing) occupancy() uint64 {
	t, h := r.tail.Load(), r.headPub.Load()
	if t < h {
		return 0
	}
	return t - h
}
