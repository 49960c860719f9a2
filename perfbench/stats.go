package main

import (
	"math"
	"sort"
)

// sample is a set of measurements of one quantity.
type sample []float64

func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile returns the q-quantile (0..1) by linear interpolation
// between closest ranks; NaN for an empty sample.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := s.sorted()
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func (s sample) median() float64 { return s.quantile(0.5) }

func (s sample) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// tailQuantile picks the highest of the usual reporting percentiles
// that still has at least 10 samples beyond it, so a tail figure is
// never read off a handful of points. With fewer than 40 samples it
// falls back to the maximum.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9, 0.75} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 1
}

// tail returns the tail value and the quantile it was read at.
func (s sample) tail() (float64, float64) {
	q := tailQuantile(len(s))
	return s.quantile(q), q
}
