package kvcluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%08d", i))
	}
	return keys
}

// TestRingDeterministicPlacement: placement is a pure function of
// (nodes, vnodes, seed) — rebuilding the ring, or building it with the
// nodes listed in a different order, assigns every key to the same
// address.
func TestRingDeterministicPlacement(t *testing.T) {
	nodes := []string{"10.0.0.1:11211", "10.0.0.2:11211", "10.0.0.3:11211"}
	r1, err := NewRing(nodes, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRing(nodes, 0, 42)
	shuffled, _ := NewRing([]string{nodes[2], nodes[0], nodes[1]}, 0, 42)
	reseeded, _ := NewRing(nodes, 0, 43)

	keys := testKeys(10_000)
	diffSeed := 0
	for _, k := range keys {
		if a, b := r1.Owner(k), r2.Owner(k); a != b {
			t.Fatalf("rebuild moved %q: %s -> %s", k, a, b)
		}
		if a, b := r1.Owner(k), shuffled.Owner(k); a != b {
			t.Fatalf("node order changed placement of %q: %s vs %s", k, a, b)
		}
		if r1.Owner(k) != reseeded.Owner(k) {
			diffSeed++
		}
	}
	// A different seed must actually reshuffle the ring, not relabel it.
	if diffSeed == 0 {
		t.Fatal("seed 43 placed every key identically to seed 42")
	}
}

// TestRingGoldenPlacement pins placement bit for bit: each key's ring
// position and replica set on the 3-node seed-42 ring, as literals. The
// test above compares rings built by the same code, so only this one
// fails if the hash (FNV-1a folded through the SplitMix64 finalizer)
// changes — which would move keys between every old and new router.
func TestRingGoldenPlacement(t *testing.T) {
	r, err := NewRing([]string{"10.0.0.1:11211", "10.0.0.2:11211", "10.0.0.3:11211"}, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		key    string
		hash   uint64
		owners [2]int
	}{
		{"golden-00", 0xc91cdf9a401a67f7, [2]int{2, 0}},
		{"golden-01", 0x9d3a9ed5bc76b43a, [2]int{1, 2}},
		{"golden-02", 0x64fad347025da517, [2]int{2, 0}},
		{"golden-03", 0xf2b92c2293eb41b2, [2]int{0, 2}},
		{"golden-04", 0x2a5611333bdf4a29, [2]int{2, 0}},
		{"golden-05", 0x2864a045b9452be4, [2]int{1, 0}},
		{"golden-06", 0xa4a000bc59998039, [2]int{2, 1}},
		{"golden-07", 0x4a221d1bf06ddf2a, [2]int{2, 1}},
		{"golden-08", 0xad0dd293059e197b, [2]int{0, 1}},
		{"golden-09", 0xd726a2f0f4ab7df5, [2]int{1, 2}},
		{"golden-10", 0xc29476b2b0dc2abd, [2]int{1, 0}},
		{"golden-11", 0x1e3e1f656c73efa4, [2]int{0, 2}},
		{"golden-12", 0x3ac32af59dda7ded, [2]int{1, 0}},
		{"golden-13", 0x9510ba589d8cf5b8, [2]int{1, 2}},
		{"golden-14", 0xb1c2e5d4380f7feb, [2]int{0, 1}},
		{"golden-15", 0xd57dbd75477b8e61, [2]int{0, 1}},
	}
	var buf [2]int
	for _, g := range golden {
		k := []byte(g.key)
		if h := r.hashKey(k); h != g.hash {
			t.Errorf("%s: ring position %#x, want %#x", g.key, h, g.hash)
		}
		if o := r.OwnerIndex(k); o != g.owners[0] {
			t.Errorf("%s: OwnerIndex %d, want %d", g.key, o, g.owners[0])
		}
		if got := r.AppendOwnerIndexes(buf[:0], k, 2); len(got) != 2 || got[0] != g.owners[0] || got[1] != g.owners[1] {
			t.Errorf("%s: AppendOwnerIndexes %v, want %v", g.key, got, g.owners)
		}
	}
}

// TestRingBalance: with DefaultVNodes points per node, no node's share
// of a large uniform keyspace strays wildly from 1/N.
func TestRingBalance(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1"}
	r, err := NewRing(nodes, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(nodes))
	keys := testKeys(100_000)
	for _, k := range keys {
		counts[r.OwnerIndex(k)]++
	}
	for i, c := range counts {
		share := float64(c) / float64(len(keys))
		if share < 0.18 || share > 0.50 {
			t.Errorf("node %s owns %.1f%% of keys (counts %v)", nodes[i], share*100, counts)
		}
	}
}

// TestRingJoinMovesBoundedAndMonotonic: adding a node to an N-node ring
// moves at most ~1/(N+1) of a 100k-key space (small epsilon for vnode
// variance), and every moved key lands on the new node — keys never
// shuffle between survivors.
func TestRingJoinMovesBoundedAndMonotonic(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1"}
	before, err := NewRing(nodes, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	after, err := before.Add("d:1")
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(100_000)
	moved := 0
	for _, k := range keys {
		a, b := before.Owner(k), after.Owner(k)
		if a == b {
			continue
		}
		moved++
		if b != "d:1" {
			t.Fatalf("join moved %q from %s to surviving node %s", k, a, b)
		}
	}
	// Expected movement is 1/4; allow vnode-placement variance up to 1/4 + 6%.
	limit := int(float64(len(keys)) * (1.0/4 + 0.06))
	if moved > limit {
		t.Errorf("join moved %d/%d keys, limit %d", moved, len(keys), limit)
	}
	if moved == 0 {
		t.Error("join moved no keys at all")
	}
}

// TestRingLeaveMovesOnlyOrphans: removing a node moves exactly the keys
// it owned (~1/N + epsilon), and no key between surviving nodes.
func TestRingLeaveMovesOnlyOrphans(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1", "d:1"}
	before, err := NewRing(nodes, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	after, err := before.Remove("b:1")
	if err != nil {
		t.Fatal(err)
	}
	keys := testKeys(100_000)
	moved := 0
	for _, k := range keys {
		a, b := before.Owner(k), after.Owner(k)
		if a == "b:1" {
			moved++
			if b == "b:1" {
				t.Fatalf("removed node still owns %q", k)
			}
			continue
		}
		if a != b {
			t.Fatalf("leave moved %q between survivors: %s -> %s", k, a, b)
		}
	}
	limit := int(float64(len(keys)) * (1.0/4 + 0.06))
	if moved > limit {
		t.Errorf("removed node owned %d/%d keys, limit %d", moved, len(keys), limit)
	}
	if moved == 0 {
		t.Error("removed node owned no keys")
	}
}

// TestRingOwnerIndexesProperties: for every key, the replica set holds
// n distinct physical nodes, element 0 is exactly OwnerIndex, n beyond
// the node count truncates to a permutation of all nodes, and the
// allocation-free Append variant agrees with the allocating one.
func TestRingOwnerIndexesProperties(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	r, err := NewRing(nodes, 0, 21)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]int, 0, len(nodes))
	for _, k := range testKeys(20_000) {
		for n := 1; n <= len(nodes)+2; n++ {
			owners := r.OwnerIndexes(k, n)
			want := n
			if want > len(nodes) {
				want = len(nodes)
			}
			if len(owners) != want {
				t.Fatalf("OwnerIndexes(%q, %d) returned %d owners, want %d", k, n, len(owners), want)
			}
			if owners[0] != r.OwnerIndex(k) {
				t.Fatalf("OwnerIndexes(%q)[0] = %d, OwnerIndex = %d", k, owners[0], r.OwnerIndex(k))
			}
			seen := make(map[int]bool, len(owners))
			for _, o := range owners {
				if o < 0 || o >= len(nodes) {
					t.Fatalf("OwnerIndexes(%q, %d) returned out-of-range node %d", k, n, o)
				}
				if seen[o] {
					t.Fatalf("OwnerIndexes(%q, %d) repeated node %d: %v", k, n, o, owners)
				}
				seen[o] = true
			}
			appended := r.AppendOwnerIndexes(scratch[:0], k, n)
			if len(appended) != len(owners) {
				t.Fatalf("AppendOwnerIndexes disagrees on length for %q n=%d", k, n)
			}
			for i := range owners {
				if appended[i] != owners[i] {
					t.Fatalf("AppendOwnerIndexes(%q, %d) = %v, OwnerIndexes = %v", k, n, appended, owners)
				}
			}
		}
	}
	if r.OwnerIndexes([]byte("k"), 0) != nil {
		t.Error("OwnerIndexes(k, 0) should be empty")
	}
}

// TestRingOwnerIndexesStability: a key's R=2 replica set only changes
// when its primary-or-successor arcs change. Concretely, on join the new
// set is either identical (by address) or includes the joiner; on leave
// the surviving members of the old set are still in the new set. Keys
// far from the changed node's arcs keep their replica set untouched.
func TestRingOwnerIndexesStability(t *testing.T) {
	nodes := []string{"a:1", "b:1", "c:1", "d:1"}
	before, err := NewRing(nodes, 0, 63)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := before.Add("e:1")
	if err != nil {
		t.Fatal(err)
	}
	left, err := before.Remove("b:1")
	if err != nil {
		t.Fatal(err)
	}
	addrs := func(r *Ring, owners []int) []string {
		out := make([]string, len(owners))
		for i, o := range owners {
			out[i] = r.Nodes()[o]
		}
		return out
	}
	keys := testKeys(100_000)
	joinChanged, leaveChanged := 0, 0
	for _, k := range keys {
		old := addrs(before, before.OwnerIndexes(k, 2))

		// Join: survivors' points are unchanged, so the clockwise walk is
		// the old walk with e's points spliced in — the new pair either
		// equals the old pair or contains the joiner.
		nw := addrs(joined, joined.OwnerIndexes(k, 2))
		if nw[0] != old[0] || nw[1] != old[1] {
			joinChanged++
			if nw[0] != "e:1" && nw[1] != "e:1" {
				t.Fatalf("join changed %q's replica set %v -> %v without involving the joiner", k, old, nw)
			}
		}

		// Leave: removing b's points cannot reorder survivors — members
		// of the old pair other than b must survive into the new pair.
		lw := addrs(left, left.OwnerIndexes(k, 2))
		if lw[0] != old[0] || lw[1] != old[1] {
			leaveChanged++
		}
		for _, a := range old {
			if a == "b:1" {
				continue
			}
			if lw[0] != a && lw[1] != a {
				t.Fatalf("leave dropped survivor %s from %q's replica set %v -> %v", a, k, old, lw)
			}
		}
		if lw[0] == "b:1" || lw[1] == "b:1" {
			t.Fatalf("removed node still in %q's replica set %v", k, lw)
		}
	}
	// Sanity: both events must actually perturb some replica sets, and a
	// single node's arcs must leave most of the keyspace untouched.
	if joinChanged == 0 || leaveChanged == 0 {
		t.Fatalf("join changed %d, leave changed %d replica sets — expected both > 0", joinChanged, leaveChanged)
	}
	if max := int(float64(len(keys)) * 0.75); joinChanged > max || leaveChanged > max {
		t.Errorf("replica churn too high: join %d, leave %d of %d keys", joinChanged, leaveChanged, len(keys))
	}
}

// TestRingConstructionErrors: duplicates, empties, and removing a
// stranger are refused.
func TestRingConstructionErrors(t *testing.T) {
	if _, err := NewRing(nil, 0, 1); err == nil {
		t.Error("empty node list accepted")
	}
	if _, err := NewRing([]string{"a:1", "a:1"}, 0, 1); err == nil {
		t.Error("duplicate address accepted")
	}
	if _, err := NewRing([]string{"a:1", ""}, 0, 1); err == nil {
		t.Error("empty address accepted")
	}
	r, err := NewRing([]string{"a:1"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Remove("zzz:1"); err == nil {
		t.Error("removing unknown node accepted")
	}
}
