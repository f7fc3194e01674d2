package adaptivekv

import "math/bits"

// Shard-grouped batch reads. A pipelined server parses a burst of get
// requests into one batch and resolves it here one shard group at a time:
// GetBatch reads each key as Get does, taking each shard's lock once per
// group. Results land at the key's index, so replies can be emitted in
// request order regardless of shard grouping.

// batchChunk bounds the keys handled per grouping pass so membership
// fits in one uint64 bitmask; larger batches are processed in chunks.
const batchChunk = 64

// chunk is one ≤batchChunk slice of a batch, each key hashed once: the
// grouping passes then split hashes instead of rehashing every remaining
// key once per shard group.
type chunk struct {
	hs   [batchChunk]uint64 // mixed key hashes
	todo uint64             // keys not yet grouped
}

func (c *Cache[K, V]) newChunk(keys []K) (ck chunk) {
	for i, k := range keys {
		ck.hs[i] = mix64(c.hash(k))
	}
	ck.todo = 1<<uint(len(keys)) - 1 // all ones at a full chunk
	return ck
}

// nextGroup takes the ungrouped keys that share the lowest one's shard,
// returning the shard and their bitmask (0 once the chunk is done).
func (c *Cache[K, V]) nextGroup(ck *chunk) (*shard[K, V], uint64) {
	if ck.todo == 0 {
		return nil, 0
	}
	sh, _, _ := c.place(ck.hs[bits.TrailingZeros64(ck.todo)])
	var group uint64
	for m := ck.todo; m != 0; m &= m - 1 {
		if s, _, _ := c.place(ck.hs[bits.TrailingZeros64(m)]); s == sh {
			group |= m & -m
		}
	}
	ck.todo &^= group
	return sh, group
}

// GetBatch looks up keys[i] into vals[i], oks[i]. The slices must have
// equal length (the caller owns and reuses them; GetBatch allocates
// nothing). Each access updates the adaptive machinery exactly as Get
// does.
func (c *Cache[K, V]) GetBatch(keys []K, vals []V, oks []bool) {
	if len(vals) != len(keys) || len(oks) != len(keys) {
		panic("adaptivekv: GetBatch slice lengths differ")
	}
	for start := 0; start < len(keys); start += batchChunk {
		end := min(start+batchChunk, len(keys))
		c.getChunk(keys[start:end], vals[start:end], nil, oks[start:end])
	}
}

// GetBatchCas is GetBatch returning, additionally, each hit's cas unique
// into casids[i] (0 on a miss). Each (value, unique) pair is read under
// the shard lock, exactly as GetCas does per key.
func (c *Cache[K, V]) GetBatchCas(keys []K, vals []V, casids []uint64, oks []bool) {
	if len(vals) != len(keys) || len(casids) != len(keys) || len(oks) != len(keys) {
		panic("adaptivekv: GetBatchCas slice lengths differ")
	}
	for start := 0; start < len(keys); start += batchChunk {
		end := min(start+batchChunk, len(keys))
		c.getChunk(keys[start:end], vals[start:end], casids[start:end], oks[start:end])
	}
}

// getChunk resolves one ≤batchChunk key group; casids may be nil when the
// caller has no use for cas uniques.
func (c *Cache[K, V]) getChunk(keys []K, vals []V, casids []uint64, oks []bool) {
	ck := c.newChunk(keys)
	for sh, group := c.nextGroup(&ck); group != 0; sh, group = c.nextGroup(&ck) {
		sh.mu.Lock()
		for m := group; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			_, set, tag := c.place(ck.hs[j])
			var id uint64
			vals[j], id, oks[j] = c.lookupLocked(sh, set, tag, keys[j])
			if casids != nil {
				casids[j] = id
			}
		}
		sh.mu.Unlock()
	}
}
