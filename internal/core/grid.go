package core

import (
	"math"
	"sync"

	"dvsslack/internal/rtm"
)

// demandGrid is the precomputed steady-state demand landscape of a
// periodic task set over one hyperperiod: every deadline residue the
// future-release streams can ever produce, with the worst-case work
// due at it, in sorted order, plus the prefix/suffix aggregates that
// let a scan bound the entire un-scanned remainder of the deadline
// axis in O(log m).
//
// The grid is the "event structure" of the incremental analyzer: it
// is built once per task set (the streams' deadline residues never
// change — release skips and jitter only delay individual streams,
// which the certificate treats conservatively), and every Slack call
// reuses it to certify that the deadlines it did not visit cannot
// lower the slack. See Analyzer.certify for the exact inequalities
// and docs/performance.md for the derivation.
//
// Positions are offsets in (0, H]: the canonical deadline set is
// {w·H + pos[j] : w ≥ 0, j < m}. With the integer period pools used
// throughout the evaluation every position is exactly representable,
// so the canonical set and the scan's accumulated stream deadlines
// agree bit-for-bit; non-integer task sets are covered by the
// boundary epsilon in the certificate.
type demandGrid struct {
	hyper float64
	pos   []float64 // sorted deadline offsets in (0, H]
	cum   []float64 // cum[j] = Σ weight of pos[0..j]
	// sufMin[j] = min over k ≥ j of (pos[k] − cum[k]); sufMin[m] = +Inf.
	// This is the steady-state slack landscape: the slack at the
	// canonical deadline w·H + pos[k] differs from (pos[k] − cum[k])
	// only by call-time constants, so a suffix minimum bounds every
	// unscanned deadline of the current hyperperiod window at once.
	sufMin []float64
	allMin float64 // min over all j of (pos[j] − cum[j])
	total  float64 // cum[m−1] = U·H (worst-case work per hyperperiod)
	// dev bounds the demand of ANY interval (a, b] of the periodic
	// deadline set by util·(b−a) + dev (max burst above average over
	// one period). It serves only the off-grid entry clause of the
	// certificate and the staircase's unfolded-entry sentinel.
	dev float64
	// util is the grid's own utilization total/hyper. It may differ
	// from rtm.TaskSet.Utilization by float rounding; the certificate
	// uses this value so the per-hyperperiod drift term r·(total −
	// util·hyper) cancels to an ulp, which the slop margin absorbs.
	util float64

	// exact reports that every period and relative deadline is an
	// integer (integerStreams): positions, window bases and the
	// streams' accumulated deadlines are then exact integers, so a
	// stream deadline lands on its grid slot bit for bit.
	exact bool
	// The deadline calendar: every (position, task) pair of one
	// hyperperiod, sorted by position and then by task index —
	// calPos[k] is the offset in (0, H], calTask[k] the task due
	// there. Built only on exact grids, so that window bases plus
	// offsets reproduce the linear merge's accumulated stream
	// deadlines bit for bit; nil otherwise. Slack walks it with a
	// cursor instead of merging the n release streams at every scanned
	// deadline, when the call-time streams line up with it exactly
	// (see Slack).
	calPos  []float64
	calTask []int32
}

// maxGridPoints caps the grid size. Beyond it the build cost would
// rival the scans it saves, so the analyzer falls back to the plain
// full-rescan path (sound, just slower). The evaluation's period pools produce a few hundred to
// a few thousand points.
const maxGridPoints = 1 << 15

// gridCacheSize bounds the process-wide grid cache. Every new policy
// instance builds its own Analyzer (ReuseFor keeps one only across
// runs of the same instance), and the serving paths (dvsd result
// cache misses, experiment replications, benchmark loops) re-run the
// same handful of task sets over and over — without the cache every
// one of those runs would pay the grid build again, which at a few
// thousand points costs as much as several certified Slack calls.
const gridCacheSize = 8

// gridKey is one task's contribution to the cache key. Grids are
// matched by task-set *content*, never by pointer, so a recycled
// TaskSet allocation can never alias a stale grid, and equal task
// sets built independently (experiment replications) share one build.
type gridKey struct{ period, wcet, dl float64 }

var gridCache struct {
	sync.Mutex
	entries [gridCacheSize]struct {
		key []gridKey
		g   *demandGrid
		ok  bool
	}
	next int
}

func gridKeyOf(ts *rtm.TaskSet) []gridKey {
	key := make([]gridKey, len(ts.Tasks))
	for i, t := range ts.Tasks {
		key[i] = gridKey{period: t.Period, wcet: t.WCET, dl: t.RelDeadline()}
	}
	return key
}

func gridKeyEqual(a, b []gridKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildDemandGrid returns the grid for a's task set — from the
// process-wide cache when an identical task set was built before —
// or nil when the hyperperiod is unknown or the grid would exceed
// maxGridPoints (nil is cached too: deciding it costs a pass over
// the tasks). The grid is immutable after construction, so sharing
// one instance across analyzers and goroutines is safe.
func buildDemandGrid(a *Analyzer) *demandGrid {
	key := a.key
	gridCache.Lock()
	for i := range gridCache.entries {
		e := &gridCache.entries[i]
		if e.ok && gridKeyEqual(e.key, key) {
			g := e.g
			gridCache.Unlock()
			return g
		}
	}
	gridCache.Unlock()
	g := buildDemandGridUncached(a)
	gridCache.Lock()
	e := &gridCache.entries[gridCache.next]
	e.key, e.g, e.ok = key, g, true
	gridCache.next = (gridCache.next + 1) % gridCacheSize
	gridCache.Unlock()
	return g
}

// buildDemandGridUncached materializes the grid by merging the
// per-task deadline-residue sequences (each already sorted — an
// arithmetic progression), avoiding a general sort of the combined
// point set.
func buildDemandGridUncached(a *Analyzer) *demandGrid {
	h := a.hyper
	if h <= 0 {
		return nil
	}
	// Count points first: one per stream deadline residue per task.
	m := 0
	for _, t := range a.ts.Tasks {
		k := h / t.Period
		// Guard non-divisors (Hyperperiod guarantees divisibility up
		// to float rounding) and oversized grids.
		kn := math.Round(k)
		if math.Abs(k-kn) > 1e-9*(1+kn) || kn < 1 {
			return nil
		}
		m += int(kn)
		if m > maxGridPoints {
			return nil
		}
	}
	if m == 0 {
		return nil
	}
	g := &demandGrid{hyper: h}
	// Merge the per-task residue sequences. Each task's deadlines are
	// the arithmetic progression d0, d0+T, d0+2T, … — already sorted —
	// so an n-way "pick the minimum head" merge produces the combined
	// axis in O(m·n) float compares with no general sort. Equal
	// positions coalesce as they are consumed.
	nt := len(a.ts.Tasks)
	heads := make([]float64, nt)
	for i, t := range a.ts.Tasks {
		// First deadline residue in (0, period]: the stream deadlines
		// are r + D + k·T with r ≡ 0 (mod T), so residues mod T equal
		// D mod T (mapped to T when the remainder is zero).
		d0 := math.Mod(t.RelDeadline(), t.Period)
		if d0 <= 0 {
			d0 += t.Period
		}
		heads[i] = d0
	}
	g.pos = make([]float64, 0, m)
	g.cum = make([]float64, 0, m)
	g.exact = integerStreams(a.ts.Tasks, h)
	if g.exact {
		// m counts one entry per task per deadline residue: exactly
		// the calendar's size.
		g.calPos = make([]float64, 0, m)
		g.calTask = make([]int32, 0, m)
	}
	var c float64
	end := h + 1e-9*(1+h)
	for {
		d := math.Inf(1)
		for _, p := range heads {
			if p < d {
				d = p
			}
		}
		if d > end {
			break
		}
		for i := range heads {
			if heads[i] == d {
				c += a.ts.Tasks[i].WCET
				heads[i] += a.ts.Tasks[i].Period
				if g.exact {
					g.calPos = append(g.calPos, d)
					g.calTask = append(g.calTask, int32(i))
				}
			}
		}
		g.pos = append(g.pos, d)
		g.cum = append(g.cum, c)
	}
	g.total = c
	g.util = c / h

	n := len(g.pos)
	g.sufMin = make([]float64, n+1)
	g.sufMin[n] = math.Inf(1)
	for j := n - 1; j >= 0; j-- {
		v := g.pos[j] - g.cum[j]
		g.sufMin[j] = math.Min(v, g.sufMin[j+1])
	}
	g.allMin = g.sufMin[0]

	// Deviation envelope: f(x) = demand(0, x] − util·x over one
	// period. f starts at 0, jumps by the point weight at each
	// position, and drains at slope util in between; its extrema are
	// attained just after (max) and just before (min) positions.
	maxF, minF := 0.0, 0.0
	prevCum := 0.0
	for j := 0; j < n; j++ {
		after := g.cum[j] - g.util*g.pos[j]
		before := prevCum - g.util*g.pos[j]
		if after > maxF {
			maxF = after
		}
		if before < minF {
			minF = before
		}
		prevCum = g.cum[j]
	}
	g.dev = maxF - minF
	return g
}

// calExactLimit bounds the magnitudes the calendar walk may touch:
// below 2^53 every integer is a float64, so integer window bases,
// offsets and their sums are exact.
const calExactLimit = 1 << 53

// integerStreams reports whether the release streams of tasks land on
// integers that a calendar over hyperperiod h reproduces exactly: every
// period and relative deadline an integer, h an integer multiple of
// every period, all below calExactLimit.
func integerStreams(tasks []rtm.Task, h float64) bool {
	if h != math.Trunc(h) || h >= calExactLimit {
		return false
	}
	for _, t := range tasks {
		d := t.RelDeadline()
		if t.Period != math.Trunc(t.Period) || d != math.Trunc(d) ||
			d >= calExactLimit || math.Mod(h, t.Period) != 0 {
			return false
		}
	}
	return true
}

// calCursor walks the deadline calendar across hyperperiod windows:
// entry j of the window starting at base, whose absolute deadline is d.
type calCursor struct {
	pos   []float64
	task  []int32
	hyper float64
	j     int
	base  float64
	d     float64
}

// next steps the cursor to the following entry, wrapping into the
// next window after the last one.
func (c *calCursor) next() {
	c.j++
	if c.j == len(c.pos) {
		c.j = 0
		c.base += c.hyper
	}
	c.d = c.base + c.pos[c.j]
}

// cursorAt returns a calendar cursor on the first entry at or after
// the absolute deadline x. Offsets lie in (0, H], so a deadline on a
// window boundary is the previous window's last offset.
func (g *demandGrid) cursorAt(x float64) calCursor {
	q := math.Floor(x / g.hyper)
	rho := x - q*g.hyper
	if rho == 0 {
		q--
		rho = g.hyper
	}
	lo, hi := 0, len(g.calPos)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.calPos[mid] < rho {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c := calCursor{pos: g.calPos, task: g.calTask, hyper: g.hyper, j: lo, base: q * g.hyper}
	if lo == len(g.calPos) {
		c.j, c.base = 0, c.base+g.hyper
	}
	c.d = c.base + c.pos[c.j]
	return c
}

// pastIndex returns the number of grid positions ≤ rho−eps: positions
// within eps of the query point stay "future", so demand near the
// boundary is counted twice (once in the folded prefix, once in the
// certificate) rather than dropped — the conservative direction.
func (g *demandGrid) pastIndex(rho, eps float64) int {
	lo, hi := 0, len(g.pos)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.pos[mid] <= rho-eps {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
