// Package kvcluster is the client-side routing tier over a fleet of
// adaptcached nodes: a seeded consistent-hash ring with virtual nodes,
// per-node pipelined connection pools built on kvproto.ReconnectClient,
// scatter-gather multi-key get and gets reassembled in request order,
// and health probing that ejects failing nodes (their keyspace fails
// fast) and reintegrates them with capped backoff. The Router runs
// kvserver's request loop over a Cluster to expose the whole fleet
// behind one ordinary kvproto endpoint (cmd/kvrouter).
//
// The cluster deliberately routes each key to exactly one owner: the
// paper's adaptation argument is per-cache-set workload specialization,
// and consistent hashing extends it across machines — each node sees a
// stable slice of the keyspace, so its per-shard policy selection
// converges on that slice's reuse behavior instead of thrashing on a
// union of everything.
package kvcluster

import (
	"fmt"
	"sort"

	"repro/internal/chaosledger"
)

// DefaultVNodes is the virtual-node count per physical node. 128 points
// per node keeps the expected keyspace imbalance under a few percent for
// small fleets while the ring stays cheap to build and search.
const DefaultVNodes = 128

// ringPoint is one virtual node: a position on the hash circle owned by
// a physical node (indexed into Ring.nodes).
type ringPoint struct {
	hash uint64
	node int
}

// Ring is an immutable consistent-hash ring. Point placement depends
// only on (node address, vnode ordinal, seed), so two rings built from
// overlapping node sets place the shared nodes' points identically —
// that is what bounds key movement on join/leave to the new/removed
// node's arcs (~1/N of the keyspace).
type Ring struct {
	nodes  []string
	points []ringPoint
	vnodes int
	seed   uint64
}

// fnv1a folds bytes into a seeded FNV-1a state; callers finalize with
// chaosledger.Splitmix64, whose full avalanche makes sequential vnode
// ordinals and similar addresses land uniformly where raw FNV diffuses
// poorly in the high bits.
func fnv1a(seed uint64, b []byte) uint64 {
	h := seed ^ 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// NewRing builds a ring over nodes (addresses must be unique and
// non-empty; order fixes each node's index for callers that keep
// parallel per-node state). vnodes <= 0 takes DefaultVNodes. The same
// (nodes, vnodes, seed) always yields the same placement.
func NewRing(nodes []string, vnodes int, seed uint64) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("kvcluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]struct{}, len(nodes))
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		points: make([]ringPoint, 0, len(nodes)*vnodes),
		vnodes: vnodes,
		seed:   seed,
	}
	for i, addr := range nodes {
		if addr == "" {
			return nil, fmt.Errorf("kvcluster: empty node address at index %d", i)
		}
		if _, dup := seen[addr]; dup {
			return nil, fmt.Errorf("kvcluster: duplicate node address %q", addr)
		}
		seen[addr] = struct{}{}
		base := fnv1a(seed, []byte(addr))
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: chaosledger.Splitmix64(base + uint64(v)*0x9e3779b97f4a7c15),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// A 64-bit collision between two nodes' points: break the tie by
		// address so placement never depends on sort stability.
		return r.nodes[r.points[a].node] < r.nodes[r.points[b].node]
	})
	return r, nil
}

// Nodes returns the node addresses in index order. The slice is shared;
// callers must not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// hashKey positions a key on the circle.
func (r *Ring) hashKey(key []byte) uint64 {
	return chaosledger.Splitmix64(fnv1a(r.seed, key))
}

// OwnerIndex returns the index (into Nodes) of the node owning key: the
// first ring point clockwise from the key's position.
func (r *Ring) OwnerIndex(key []byte) int {
	h := r.hashKey(key)
	// First point with hash >= h; wrap to points[0] past the top.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Owner returns the address of the node owning key.
func (r *Ring) Owner(key []byte) string { return r.nodes[r.OwnerIndex(key)] }

// OwnerIndexes returns the first n distinct physical nodes clockwise
// from key's position: the key's replica set, primary first. Element 0
// always equals OwnerIndex. n greater than the node count truncates to
// every node (in ring order for this key). Like OwnerIndex, the result
// is a pure function of (node addresses, vnodes, seed) — two rings over
// the same nodes agree on every key's replica set, and a join or leave
// only changes a replica set whose primary-or-successor arcs the
// changed node's points land on.
func (r *Ring) OwnerIndexes(key []byte, n int) []int {
	return r.AppendOwnerIndexes(nil, key, n)
}

// AppendOwnerIndexes is OwnerIndexes appending into dst, so hot paths
// can reuse a scratch slice and stay allocation-free.
func (r *Ring) AppendOwnerIndexes(dst []int, key []byte, n int) []int {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 {
		return dst
	}
	h := r.hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	start := len(dst)
	// Walk clockwise collecting distinct nodes; every node has at least
	// one point, so at most one full lap is needed.
	for scanned := 0; scanned < len(r.points) && len(dst)-start < n; scanned++ {
		if i == len(r.points) {
			i = 0
		}
		node := r.points[i].node
		i++
		dup := false
		for _, d := range dst[start:] {
			if d == node {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, node)
		}
	}
	return dst
}

// Add returns a new ring with node appended (same vnodes and seed).
// Existing nodes' points are unchanged, so only keys falling on the new
// node's arcs move — the consistent-hashing monotonicity property the
// ring tests assert.
func (r *Ring) Add(node string) (*Ring, error) {
	nodes := make([]string, 0, len(r.nodes)+1)
	nodes = append(nodes, r.nodes...)
	nodes = append(nodes, node)
	return NewRing(nodes, r.vnodes, r.seed)
}

// Remove returns a new ring without the named node.
func (r *Ring) Remove(node string) (*Ring, error) {
	nodes := make([]string, 0, len(r.nodes))
	for _, n := range r.nodes {
		if n != node {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == len(r.nodes) {
		return nil, fmt.Errorf("kvcluster: node %q not in ring", node)
	}
	return NewRing(nodes, r.vnodes, r.seed)
}
