// Package cluster implements dvsfleet, the multi-node control plane
// over dvsd workers: a consistent-hash ring that pins canonicalized
// scenario keys to workers (cache affinity — repeat simulations hit
// the same worker's LRU result cache), an active/passive health
// checker over /readyz with cordon/uncordon and drain-aware
// rebalancing, transparent failover of keys off unhealthy nodes, and
// a coordinator HTTP front end that proxies the dvsd wire protocol
// unchanged — existing clients (cmd/dvsexp -addr, cmd/dvshammer, the
// Go client) point at the coordinator instead of a single daemon and
// work as before, with experiment grids fanned out across the fleet.
//
// See docs/cluster.md for topology, routing, and failover semantics.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// DefaultReplicas is the virtual-node count per worker on the ring.
// More replicas smooth the key distribution (and tighten the bounded
// key-movement property when the worker set changes) at the price of
// a longer sorted point list; 160 keeps the movement on add/remove of
// one worker well under 2/N of the key space in practice.
const DefaultReplicas = 160

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a worker.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring mapping string keys onto node names.
// The mapping is a pure function of the member set: two rings holding
// the same nodes assign every key identically, regardless of the
// order in which nodes were added or of any earlier membership — the
// property the routing-determinism tests pin. Ring is safe for
// concurrent use.
type Ring struct {
	replicas int

	mu     sync.RWMutex
	points []ringPoint // sorted by (hash, node)
	nodes  map[string]struct{}
}

// NewRing returns an empty ring with the given virtual-node count per
// node (<= 0 selects DefaultReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, nodes: map[string]struct{}{}}
}

// hash64 is the ring's hash function: FNV-1a, stable across processes
// and Go releases (unlike maphash), so key→worker assignment survives
// coordinator restarts. FNV-1a alone barely moves the high bits when
// only a string's last bytes differ, which is all that separates a
// worker's virtual-node labels ("addr#0" … "addr#159"): they bunch
// into a few arcs and one worker can own the whole circle. The
// murmur3 finalizer spreads every input bit over all 64.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	k := h.Sum64()
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// Add inserts a node (idempotent).
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	// (hash, node) ordering makes the point list — and therefore every
	// lookup — independent of insertion order even under hash ties.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
}

// Remove deletes a node (idempotent).
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports membership.
func (r *Ring) Has(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.nodes[node]
	return ok
}

// Nodes returns the member set in sorted order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Lookup returns the node owning key (the first virtual node at or
// clockwise of the key's hash). ok is false on an empty ring.
func (r *Ring) Lookup(key string) (node string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.search(key)].node, true
}

// Successors returns up to n distinct nodes in ring order starting at
// key's owner: the failover sequence for that key. n <= 0 returns
// every member. The first element equals Lookup(key).
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i, start := 0, r.search(key); i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}

// search returns the index of the first point at or clockwise of
// key's hash (callers hold at least a read lock and have checked the
// ring is non-empty).
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return i
}
