package cluster

import (
	"fmt"
	"testing"
)

// keys returns a deterministic key corpus large enough for the
// distribution properties below to be sharp.
func testKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("scenario-%06d", i)
	}
	return out
}

// TestRingInsertionOrderIndependence pins the routing-determinism
// contract: the key→node mapping is a pure function of the member
// set, so two rings built from the same workers in different orders
// (and with different membership history) agree on every key.
func TestRingInsertionOrderIndependence(t *testing.T) {
	nodes := []string{"10.0.0.1:8080", "10.0.0.2:8080", "10.0.0.3:8080", "10.0.0.4:8080"}

	a := NewRing(0)
	for _, n := range nodes {
		a.Add(n)
	}

	b := NewRing(0)
	// Reverse order, plus a transient member added and removed.
	b.Add("10.9.9.9:1")
	for i := len(nodes) - 1; i >= 0; i-- {
		b.Add(nodes[i])
	}
	b.Remove("10.9.9.9:1")

	for _, k := range testKeys(10000) {
		na, ok := a.Lookup(k)
		if !ok {
			t.Fatalf("Lookup(%q) on non-empty ring returned ok=false", k)
		}
		nb, _ := b.Lookup(k)
		if na != nb {
			t.Fatalf("rings with identical members disagree on %q: %q vs %q", k, na, nb)
		}
	}
}

// TestRingBoundedMovementOnAdd pins the consistent-hashing property
// the fleet's cache affinity relies on: adding one worker to N moves
// fewer than 2/(N+1) of the keys, and every moved key moves TO the
// new worker (no shuffling between survivors).
func TestRingBoundedMovementOnAdd(t *testing.T) {
	nodes := []string{"w1:1", "w2:1", "w3:1", "w4:1"}
	r := NewRing(0)
	for _, n := range nodes {
		r.Add(n)
	}

	keys := testKeys(10000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k], _ = r.Lookup(k)
	}

	r.Add("w5:1")
	moved := 0
	for _, k := range keys {
		after, _ := r.Lookup(k)
		if after == before[k] {
			continue
		}
		moved++
		if after != "w5:1" {
			t.Fatalf("key %q moved %q -> %q, not to the added worker", k, before[k], after)
		}
	}
	if limit := len(keys) * 2 / 5; moved >= limit {
		t.Fatalf("adding 5th worker moved %d/%d keys, want < %d (2/N)", moved, len(keys), limit)
	}
	if moved == 0 {
		t.Fatal("adding a worker moved no keys; ring is ignoring new members")
	}
}

// TestRingBoundedMovementOnRemove is the inverse: removing a worker
// reassigns only that worker's keys; everything else stays put.
func TestRingBoundedMovementOnRemove(t *testing.T) {
	nodes := []string{"w1:1", "w2:1", "w3:1", "w4:1", "w5:1"}
	r := NewRing(0)
	for _, n := range nodes {
		r.Add(n)
	}

	keys := testKeys(10000)
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k], _ = r.Lookup(k)
	}

	r.Remove("w3:1")
	for _, k := range keys {
		after, _ := r.Lookup(k)
		if before[k] != "w3:1" && after != before[k] {
			t.Fatalf("key %q on surviving worker moved %q -> %q after removing w3", k, before[k], after)
		}
		if before[k] == "w3:1" && after == "w3:1" {
			t.Fatalf("key %q still assigned to removed worker", k)
		}
	}
}

// TestRingSuccessors pins the failover-sequence contract: distinct
// nodes, first equals Lookup, n<=0 yields the full member set, and
// the sequence is stable for a fixed member set.
func TestRingSuccessors(t *testing.T) {
	r := NewRing(0)
	for _, n := range []string{"a:1", "b:1", "c:1"} {
		r.Add(n)
	}

	for _, k := range testKeys(200) {
		owner, _ := r.Lookup(k)
		succ := r.Successors(k, 0)
		if len(succ) != 3 {
			t.Fatalf("Successors(%q, 0) = %v, want all 3 members", k, succ)
		}
		if succ[0] != owner {
			t.Fatalf("Successors(%q)[0] = %q, want Lookup's %q", k, succ[0], owner)
		}
		seen := map[string]bool{}
		for _, n := range succ {
			if seen[n] {
				t.Fatalf("Successors(%q) repeats %q: %v", k, n, succ)
			}
			seen[n] = true
		}
		if two := r.Successors(k, 2); len(two) != 2 || two[0] != succ[0] || two[1] != succ[1] {
			t.Fatalf("Successors(%q, 2) = %v, want prefix of %v", k, two, succ)
		}
	}
}

// TestRingEmptyAndIdempotent covers the edges: lookups on an empty
// ring fail cleanly, double-add and double-remove are no-ops.
func TestRingEmptyAndIdempotent(t *testing.T) {
	r := NewRing(8)
	if _, ok := r.Lookup("k"); ok {
		t.Fatal("Lookup on empty ring returned ok=true")
	}
	if s := r.Successors("k", 0); s != nil {
		t.Fatalf("Successors on empty ring = %v, want nil", s)
	}

	r.Add("a:1")
	r.Add("a:1")
	if r.Len() != 1 {
		t.Fatalf("Len after double-Add = %d, want 1", r.Len())
	}
	if !r.Has("a:1") {
		t.Fatal("Has(a:1) = false after Add")
	}
	r.Remove("a:1")
	r.Remove("a:1")
	if r.Len() != 0 || r.Has("a:1") {
		t.Fatal("ring not empty after Remove")
	}
}

// TestRingBalanceLoopbackWorkers pins the ring's balance on the worker
// names a fleet really has: loopback addresses whose virtual-node
// labels differ only in their last few bytes. Over a sweep of
// three-worker port sets, every worker owns a fair share of the keys,
// so a grid's runs spread over the whole fleet.
func TestRingBalanceLoopbackWorkers(t *testing.T) {
	keys := testKeys(3000)
	for base := 32768; base < 60000; base += 997 {
		r := NewRing(0)
		for i := 0; i < 3; i++ {
			r.Add(fmt.Sprintf("127.0.0.1:%d", base+13*i))
		}
		owned := map[string]int{}
		for _, k := range keys {
			n, _ := r.Lookup(k)
			owned[n]++
		}
		for _, n := range r.Nodes() {
			if share := float64(owned[n]) / float64(len(keys)); share < 0.2 || share > 0.5 {
				t.Errorf("ports from %d: %s owns %.2f of the keys, want within [0.2, 0.5]", base, n, share)
			}
		}
	}
}
