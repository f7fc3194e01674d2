package adaptivekv

import (
	"fmt"
	"sync"
	"testing"
)

// TestKVFlush: Flush empties every shard, returns the resident count,
// preserves the operation counters, and leaves the cache fully usable.
func TestKVFlush(t *testing.T) {
	for _, cfg := range []Config{
		{Shards: 2, Sets: 16, Ways: 4},
		{Shards: 1, Sets: 1, Ways: 8, Mode: ModeSingle}, // Sets==1: the tag spans all 64 hash bits
		{Shards: 4, Sets: 8, Ways: 2, Mode: ModeSingle, Components: []string{"LRU"}},
	} {
		t.Run(fmt.Sprintf("shards=%d sets=%d strict=%v", cfg.Shards, cfg.Sets, cfg.StrictOrder), func(t *testing.T) {
			c := New[string, int](cfg)
			// Overfill so evictions happen, then flush.
			n := c.Capacity() * 2
			for i := 0; i < n; i++ {
				c.Set(fmt.Sprintf("key-%04d", i), i)
			}
			for i := 0; i < n; i++ {
				c.Get(fmt.Sprintf("key-%04d", i))
			}
			before := c.Stats()
			resident := c.Len()
			if resident == 0 {
				t.Fatal("cache empty before flush")
			}
			if got := c.Flush(); got != resident {
				t.Fatalf("Flush removed %d, want %d", got, resident)
			}
			if got := c.Len(); got != 0 {
				t.Fatalf("Len after flush = %d, want 0", got)
			}
			for i := 0; i < n; i++ {
				if _, ok := c.Get(fmt.Sprintf("key-%04d", i)); ok {
					t.Fatalf("key-%04d survived flush", i)
				}
			}
			// Flush drops data, not history: the op counters only grow.
			after := c.Stats()
			if after.Stores != before.Stores || after.GetHits != before.GetHits {
				t.Fatalf("flush disturbed counters: before %+v after %+v", before, after)
			}
			// Double flush is a no-op.
			if got := c.Flush(); got != 0 {
				t.Fatalf("second Flush removed %d, want 0", got)
			}
			// The cache must refill normally.
			c.Set("fresh", 42)
			if v, ok := c.Get("fresh"); !ok || v != 42 {
				t.Fatalf("Get(fresh) after flush = (%d, %v), want (42, true)", v, ok)
			}
		})
	}
}

// TestKVFlushConcurrent races Flush against readers and writers; the
// invariant is simply no lost updates visible as corruption — a Get must
// return either a miss or the exact value last Set for that key.
func TestKVFlushConcurrent(t *testing.T) {
	c := New[string, int](Config{Shards: 2, Sets: 32, Ways: 4})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("g%d-%d", g, i%64)
				c.Set(k, g)
				if v, ok := c.Get(k); ok && v != g {
					t.Errorf("Get(%s) = %d, want %d", k, v, g)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		c.Flush()
	}
	close(stop)
	wg.Wait()
	c.Flush()
	if got := c.Len(); got != 0 {
		t.Fatalf("Len after final flush = %d, want 0", got)
	}
}
