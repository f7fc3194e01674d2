package core

import (
	"testing"
	"testing/quick"

	"repro/internal/history"
)

// TestEngineStoreLookupDelete exercises the basic key-value contract of
// the exported decision API: a Lookup miss does not fill, Store upserts,
// Delete frees the way.
func TestEngineStoreLookupDelete(t *testing.T) {
	ad := NewAdaptive([]ComponentFactory{lruf, lfuf})
	e := NewEngine(EngineGeometry(4, 4), ad)

	if way, ok := e.Lookup(0, 100); ok || way != -1 {
		t.Fatalf("cold Lookup = (%d, %v), want (-1, false)", way, ok)
	}
	if got := e.Directory().Occupancy(0); got != 0 {
		t.Fatalf("Lookup filled the set: occupancy %d", got)
	}

	res := e.Store(0, 100)
	if res.Hit || res.Evicted {
		t.Fatalf("first Store = %+v, want cold fill", res)
	}
	if way, ok := e.Lookup(0, 100); !ok || way != res.Way {
		t.Fatalf("Lookup after Store = (%d, %v), want (%d, true)", way, ok, res.Way)
	}
	if res2 := e.Store(0, 100); !res2.Hit || res2.Way != res.Way {
		t.Fatalf("re-Store = %+v, want in-place hit at way %d", res2, res.Way)
	}

	if way, ok := e.Delete(0, 100); !ok || way != res.Way {
		t.Fatalf("Delete = (%d, %v), want (%d, true)", way, ok, res.Way)
	}
	if _, ok := e.Lookup(0, 100); ok {
		t.Fatal("Lookup hit after Delete")
	}
	if _, ok := e.Delete(0, 100); ok {
		t.Fatal("double Delete reported presence")
	}
}

// TestEngineFullSetRunsAlgorithm1: once a set is full, Store must evict
// exactly one resident tag and keep the rest — the adaptive Victim path.
func TestEngineFullSetRunsAlgorithm1(t *testing.T) {
	const ways = 4
	ad := NewAdaptive([]ComponentFactory{lruf, lfuf})
	e := NewEngine(EngineGeometry(1, ways), ad)
	for tag := uint64(1); tag <= ways; tag++ {
		e.Store(0, tag)
	}
	res := e.Store(0, 99)
	if res.Hit || !res.Evicted {
		t.Fatalf("Store into full set = %+v, want eviction", res)
	}
	if _, ok := e.Lookup(0, res.EvictedTag); ok {
		t.Fatalf("evicted tag %d still resident", res.EvictedTag)
	}
	live := 0
	for tag := uint64(1); tag <= ways; tag++ {
		if tag == res.EvictedTag {
			continue
		}
		if _, ok := e.Lookup(0, tag); ok {
			live++
		}
	}
	if live != ways-1 {
		t.Fatalf("%d of %d surviving tags resident, want all", live, ways-1)
	}
}

// sbarEngine builds an SBAR-driven engine with an injected unbounded
// selector, returning the engine, the SBAR policy, the selector, and the
// lowest-numbered follower set.
func sbarEngine(t *testing.T, sets, ways int) (*Engine, *SBAR, *history.Counters, int) {
	t.Helper()
	sel := history.NewCounters()
	sb := NewSBAR([]ComponentFactory{lruf, lfuf}, WithLeaderSets(4), WithSelector(sel))
	e := NewEngine(EngineGeometry(sets, ways), sb)
	for s := 0; s < sets; s++ {
		if !sb.Leader(s) {
			return e, sb, sel, s
		}
	}
	t.Fatal("no follower set")
	return nil, nil, nil, -1
}

// TestEngineLeaderSetsFeedSelector verifies the SBAR wiring through the
// Engine: misses in leader sets update the global miss history, misses in
// follower sets do not.
func TestEngineLeaderSetsFeedSelector(t *testing.T) {
	const sets, ways = 64, 4

	storm := func(e *Engine, set int) {
		for tag := uint64(0); tag < uint64(3*ways); tag++ { // misses guaranteed
			e.Store(set, tag)
		}
	}
	total := func(sel *history.Counters) int {
		c := sel.Counts(0, make([]int, 2))
		return c[0] + c[1]
	}

	e, sb, sel, _ := sbarEngine(t, sets, ways)
	leader := -1
	for s := 0; s < sets; s++ {
		if sb.Leader(s) {
			leader = s
			break
		}
	}
	storm(e, leader)
	if total(sel) == 0 {
		t.Error("leader-set misses did not reach the global selector")
	}

	e2, _, sel2, follower := sbarEngine(t, sets, ways)
	storm(e2, follower)
	if got := total(sel2); got != 0 {
		t.Errorf("follower-set misses reached the selector: %d recorded", got)
	}
}

// TestEngineFollowersObeyGlobalChoice: with the global selector biased
// toward one component, a follower set's eviction must be the one that
// component's real-array metadata dictates. The set state is arranged so
// the two components disagree: tag 10 is the least recently used but
// well-used (count 2), tag 11 is the least frequently used (count 1) but
// not the recency victim. LRU evicts 10; LFU evicts 11.
func TestEngineFollowersObeyGlobalChoice(t *testing.T) {
	const sets, ways = 64, 4
	run := func(loserMask uint64, wantWinner int) uint64 {
		e, sb, sel, follower := sbarEngine(t, sets, ways)
		// Bias the global selector: record misses against the losing
		// component so the other one wins.
		for i := 0; i < 100; i++ {
			sel.Record(0, loserMask)
		}
		if w := sb.Winner(); w != wantWinner {
			t.Fatalf("Winner = %d, want %d", w, wantWinner)
		}
		// counts: 10->2, 11->1, 12->2, 13->2
		// recency oldest-first: 10, 11, 12, 13
		e.Store(follower, 10)
		e.Lookup(follower, 10)
		e.Store(follower, 11)
		e.Store(follower, 12)
		e.Store(follower, 13)
		e.Lookup(follower, 12)
		e.Lookup(follower, 13)
		res := e.Store(follower, 99)
		if !res.Evicted {
			t.Fatalf("Store into full follower set did not evict: %+v", res)
		}
		return res.EvictedTag
	}

	// LFU (component 1) governs when LRU records the misses.
	if got := run(0b01, 1); got != 11 {
		t.Errorf("LFU-governed follower evicted %d, want 11 (least frequent)", got)
	}
	// LRU (component 0) governs when LFU records the misses.
	if got := run(0b10, 0); got != 10 {
		t.Errorf("LRU-governed follower evicted %d, want 10 (least recent)", got)
	}
}

// TestEngineTwoXBound re-checks the paper's worst-case guarantee through
// the exported decision API: with integer miss counters and full tags, a
// Store-driven adaptive engine suffers at most twice the misses of its
// better component, modulo a cold-start additive term. This is the same
// property TestTheoremTwoXBound establishes for trace-driven caches; it
// must survive the API export unchanged.
func TestEngineTwoXBound(t *testing.T) {
	const ways = 4
	pairs := [][2]ComponentFactory{
		{lruf, lfuf}, {lruf, mruf}, {fifof, lfuf}, {mruf, lfuf},
	}
	f := func(seedRaw uint32, universeRaw uint8) bool {
		seed := uint64(seedRaw) | 1
		universe := uint64(universeRaw%12) + ways + 1
		for _, pair := range pairs {
			ad := NewAdaptive(pair[:], WithHistory(history.NewCounters()))
			e := NewEngine(EngineGeometry(1, ways), ad)
			rng := seed
			for i := 0; i < 4000; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				e.Store(0, rng%universe)
			}
			am := e.Stats().Misses
			m0 := ad.Shadow(0).Stats().Misses
			m1 := ad.Shadow(1).Stats().Misses
			best := m0
			if m1 < best {
				best = m1
			}
			if am > 2*best+2*ways {
				t.Logf("seed %d universe %d pair %s/%s: engine misses %d > 2*%d+%d",
					seed, universe, ad.Shadow(0).Policy().Name(), ad.Shadow(1).Policy().Name(),
					am, best, 2*ways)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestEngineReadThroughMatchesDirect: the read-through idiom (Lookup miss
// then Store of the same tag) must leave the adaptive machinery in the
// same state as unconditional Stores — the Lookup's shadow fills turn the
// Store's shadow accesses into all-hit events, which the window history
// discards, and the extra recency touch is order-preserving. Components
// are restricted to stamp-based policies (LRU/MRU), for which a double
// touch is idempotent on the eviction order.
func TestEngineReadThroughMatchesDirect(t *testing.T) {
	const ways = 4
	direct := NewEngine(EngineGeometry(1, ways), NewAdaptive([]ComponentFactory{lruf, mruf}))
	rt := NewEngine(EngineGeometry(1, ways), NewAdaptive([]ComponentFactory{lruf, mruf}))

	rng := uint64(99)
	for i := 0; i < 2000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		tag := rng % 9
		direct.Store(0, tag)
		if _, ok := rt.Lookup(0, tag); !ok {
			rt.Store(0, tag)
		}
	}

	ca := direct.Policy().(*Adaptive).History().Counts(0, make([]int, 2))
	cb := rt.Policy().(*Adaptive).History().Counts(0, make([]int, 2))
	if ca[0] != cb[0] || ca[1] != cb[1] {
		t.Errorf("history diverged: direct %v, read-through %v", ca, cb)
	}
	for tag := uint64(0); tag < 9; tag++ {
		a := direct.Directory().ContainsMasked(0, tag)
		b := rt.Directory().ContainsMasked(0, tag)
		if a != b {
			t.Errorf("tag %d residency diverged: direct %v, read-through %v", tag, a, b)
		}
	}
}

// TestEnginePolicySwitches: driving phase-shifted traffic through an SBAR
// engine must register at least one global winner change, and a non-SBAR
// engine must report none.
func TestEnginePolicySwitches(t *testing.T) {
	const sets, ways = 64, 8
	sb := NewSBAR([]ComponentFactory{lruf, lfuf}, WithLeaderSets(16),
		WithSelector(history.NewSaturating(6)))
	e := NewEngine(EngineGeometry(sets, ways), sb)

	rng := uint64(7)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	// Alternate an LFU-friendly phase (tiny hot set reused constantly under
	// a stream of cold pollution, which recency-based eviction keeps
	// admitting) with an LFU-pathological phase (the hot set teleports, so
	// stale frequency counts protect dead blocks while LRU adapts). Each
	// flip of the phase eventually flips the global winner.
	hotBase := uint64(0)
	for phase := 0; phase < 8; phase++ {
		if phase%2 == 1 {
			hotBase += 1 << 20 // episodic working-set shift
		}
		for i := 0; i < 30000; i++ {
			set := int(next() % sets)
			var tag uint64
			if next()%3 != 0 {
				tag = hotBase + next()%4 // hot working set
			} else {
				tag = 1<<40 + uint64(phase)<<20 + next()%50000 // cold stream
			}
			if _, ok := e.Lookup(set, tag); !ok {
				e.Store(set, tag)
			}
		}
	}
	if e.PolicySwitches() == 0 {
		t.Error("SBAR engine never switched its global winner under phase-shifted traffic")
	}
	if e.Winner() < 0 {
		t.Error("SBAR engine reports no winner")
	}

	ad := NewAdaptive([]ComponentFactory{lruf, lfuf})
	ne := NewEngine(EngineGeometry(sets, ways), ad)
	for i := 0; i < 1000; i++ {
		ne.Store(int(next()%sets), next()%64)
	}
	if ne.PolicySwitches() != 0 || ne.Winner() != -1 {
		t.Errorf("non-SBAR engine: switches=%d winner=%d, want 0 and -1",
			ne.PolicySwitches(), ne.Winner())
	}
}

// TestEngineDeferredLookupReplay pins an engine property any deferred
// hit recording would rest on: Lookups recorded into a ring and replayed
// in order before the next mutation leave the engine in exactly the
// state inline recording would have — same directory stats, same SBAR
// winner, same switch count. Lookup must feed the policy's
// observation hooks on hits and misses alike (shadow arrays and miss
// history learn from both), and replay order, not replay timing, is
// what the learning depends on.
func TestEngineDeferredLookupReplay(t *testing.T) {
	const sets, ways, ops = 64, 4, 200000
	mk := func() *Engine {
		return NewEngine(EngineGeometry(sets, ways),
			NewSBAR([]ComponentFactory{lruf, lfuf}, WithLeaderSets(8)))
	}
	inline, deferred := mk(), mk()

	type rec struct {
		set int
		tag uint64
	}
	var pending []rec
	drain := func() {
		for _, r := range pending {
			deferred.Lookup(r.set, r.tag)
		}
		pending = pending[:0]
	}

	rng := uint64(99)
	for i := 0; i < ops; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		set, tag := int(rng%sets), (rng>>16)%512
		if rng%8 == 0 { // mutation: the deferred engine catches up first
			drain()
			inline.Store(set, tag)
			deferred.Store(set, tag)
			continue
		}
		inline.Lookup(set, tag)
		pending = append(pending, rec{set, tag})
	}
	drain()

	is, ds := inline.Stats(), deferred.Stats()
	if is != ds {
		t.Errorf("deferred replay diverged: inline stats %+v, deferred %+v", is, ds)
	}
	if iw, dw := inline.Winner(), deferred.Winner(); iw != dw {
		t.Errorf("deferred replay winner %d, inline %d", dw, iw)
	}
	if ip, dp := inline.PolicySwitches(), deferred.PolicySwitches(); ip != dp {
		t.Errorf("deferred replay switches %d, inline %d", dp, ip)
	}
}
