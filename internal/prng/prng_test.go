package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMix64Bijective(t *testing.T) {
	// Distinct inputs must give distinct outputs (spot check a
	// range; Mix64 is a documented bijection).
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestHash3Deterministic(t *testing.T) {
	if Hash3(1, 2, 3) != Hash3(1, 2, 3) {
		t.Fatal("Hash3 not deterministic")
	}
	if Hash3(1, 2, 3) == Hash3(1, 3, 2) {
		t.Error("Hash3 should distinguish argument order")
	}
	if Hash3(1, 2, 3) == Hash3(2, 2, 3) {
		t.Error("Hash3 should distinguish seeds")
	}
}

func TestHash3NegativeCoords(t *testing.T) {
	// Negative coordinates are legal (used for per-task phases).
	if Hash3(7, -1, 5) == Hash3(7, 1, 5) {
		t.Error("Hash3 should distinguish negative coordinates")
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(h uint64) bool {
		v := Float64(h)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSourceFloat64Distribution(t *testing.T) {
	src := New(42)
	const n = 100000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := src.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v too far from 0.5", mean)
	}
	variance := sumSq/n - mean*mean
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Errorf("variance %v too far from 1/12", variance)
	}
}

func TestSourceIntn(t *testing.T) {
	src := New(1)
	counts := make([]int, 7)
	for i := 0; i < 7000; i++ {
		counts[src.Intn(7)]++
	}
	for v, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("Intn(7) value %d count %d implausible", v, c)
		}
	}
}

func TestSourceIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestSourceRange(t *testing.T) {
	src := New(9)
	for i := 0; i < 1000; i++ {
		v := src.Range(2.5, 3.5)
		if v < 2.5 || v >= 3.5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestSourceNormal(t *testing.T) {
	src := New(11)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := src.Normal()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %v too far from 0", mean)
	}
	if sd := math.Sqrt(sumSq/n - mean*mean); math.Abs(sd-1) > 0.02 {
		t.Errorf("normal sd %v too far from 1", sd)
	}
}

func TestForkIndependence(t *testing.T) {
	a := New(5).Fork()
	b := New(5).Fork()
	// Same parent state gives the same fork.
	if a.Uint64() != b.Uint64() {
		t.Error("forks of identical sources should match")
	}
	// A fork differs from its parent's continued stream.
	p := New(5)
	f := p.Fork()
	if p.Uint64() == f.Uint64() {
		t.Error("fork should diverge from parent stream")
	}
}

func TestCloneContinuesStream(t *testing.T) {
	s := New(42)
	s.Uint64() // advance into the stream
	c := s.Clone()
	for i := 0; i < 16; i++ {
		if a, b := s.Uint64(), c.Uint64(); a != b {
			t.Fatalf("step %d: clone diverged: %x != %x", i, a, b)
		}
	}
	// Cloning must not advance the receiver.
	s2 := New(7)
	want := New(7).Uint64()
	s2.Clone()
	if got := s2.Uint64(); got != want {
		t.Errorf("Clone advanced the receiver: %x != %x", got, want)
	}
}

func TestZeroValueSourceUsable(t *testing.T) {
	var s Source
	v := s.Float64()
	if v < 0 || v >= 1 {
		t.Fatalf("zero-value Source produced %v", v)
	}
}
