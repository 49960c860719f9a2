// Package prng provides a small, fast, deterministic pseudo-random
// number generator (SplitMix64) plus stateless hash-based sampling.
//
// The evaluation harness needs two properties that math/rand does not
// give directly:
//
//  1. Stable streams: the actual execution time of job k of task i
//     must depend only on (seed, i, k), never on simulation order, so
//     that every policy is measured on the *identical* workload trace.
//  2. Cheap independent substreams keyed by integers.
//
// SplitMix64 (Steele, Lea, Flood; used as the seeder of
// xoshiro/xoroshiro) passes BigCrush for this use and is five lines of
// arithmetic, so the module stays stdlib-only.
package prng

import "math"

// Mix64 is the SplitMix64 finalizer: a bijective avalanche mix of x.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash3 mixes a seed and two integer coordinates into a single 64-bit
// hash, suitable for stateless per-(task, job) sampling.
func Hash3(seed uint64, a, b int) uint64 {
	h := Mix64(seed ^ 0x6a09e667f3bcc909)
	h = Mix64(h ^ uint64(int64(a))*0x9e3779b97f4a7c15)
	h = Mix64(h ^ uint64(int64(b))*0xc2b2ae3d27d4eb4f)
	return h
}

// Float64 maps a 64-bit hash to the half-open interval [0, 1).
func Float64(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// Source is a deterministic sequential generator.
//
// The zero value is a valid generator seeded with zero; use New to
// seed explicitly.
//
// A Source is mutable and NOT safe for concurrent use: every Uint64
// advances its state. Code running simulations in parallel must give
// each run its own Source — via New with an independent seed, Fork,
// or Clone — and never share one across goroutines. (The workload
// generators avoid the problem entirely: they sample through the
// stateless Hash3/Float64 path and carry no Source.)
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// Uint64 returns the next pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Float64 returns the next value uniformly distributed in [0, 1).
func (s *Source) Float64() float64 { return Float64(s.Uint64()) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Normal returns a standard normal variate via the Box-Muller
// transform.
func (s *Source) Normal() float64 {
	// Guard against log(0).
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Fork returns an independent substream derived from this source's
// next output, useful for giving each replication its own seed. Fork
// advances the receiver.
func (s *Source) Fork() *Source { return New(s.Uint64()) }

// Clone returns a copy that continues the receiver's exact stream
// without advancing it: both sources produce identical subsequent
// outputs. Use Clone to replay a stream (e.g. re-running one
// replication in isolation); use Fork for independent substreams.
func (s *Source) Clone() *Source { return &Source{state: s.state} }
