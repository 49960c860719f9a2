// Package core implements the paper's primary contribution: online
// slack-time analysis for EDF-scheduled periodic hard real-time task
// sets, and the DVS policy (lpSHE) that converts the analyzed slack
// into the execution speed of the current job.
//
// # Slack-time analysis
//
// At time t, let h(t, d) be the worst-case work that must finish by
// deadline d:
//
//	h(t, d) = Σ RemainingWCET(J)   over released, incomplete jobs J
//	                               with AbsDeadline(J) ≤ d
//	        + Σ WCET(F)            over future jobs F released at or
//	                               after t with AbsDeadline(F) ≤ d.
//
// The system slack is
//
//	L(t) = min over deadlines d in (t, t+H]  of  ( d − t − h(t, d) ),
//
// the largest amount of extra wall-clock time the processor can give
// to the earliest-deadline job (or spend idling) without any current
// or future deadline becoming infeasible at full speed. The three
// classical slack sources are special cases: static slack (U < 1),
// reclaimed slack (early-completed jobs simply vanish from h), and
// idle-interval look-ahead slack (gaps before future releases).
//
// # Soundness
//
// Invariant I(t): h(t, d) ≤ d − t for every deadline d. I(0) holds
// iff the task set is EDF-feasible at full speed. If the current job
// with remaining worst-case work w runs at s = w/(w+L(t)), then for
// any elapsed x ≤ w/s the work done is x·s, so
// h(t+x, d) ≤ h(t, d) − x·s ≤ (d − t) − L − x·s ≤ d − (t+x),
// using x(1−s) ≤ (w/s)(1−s) = L. Hence I is preserved at every
// instant, through preemptions and recomputations, and EDF at the
// selected speeds never misses a deadline. The property-based tests
// in this module fuzz exactly this claim.
//
// # Termination of the scan
//
// Deadlines are scanned in increasing order. Two sound cutoffs bound
// the scan:
//
//  1. Hyperperiod periodicity: let d* = max_i(first future deadline
//     of task i) + H, with H the hyperperiod. Every deadline beyond
//     d* lies exactly H after another deadline of the same task, and
//     past d* − H all release streams are in steady state, so
//     h(t, d) = h(t, d−H) + U·H and the slack at d exceeds the slack
//     at d−H by (1−U)·H ≥ 0. The minimum over all deadlines is
//     therefore attained in (t, d*], a window of at most three
//     hyperperiods.
//  2. Utilization lower bound: h(t, d) ≤ R + U·(d−t) + C_Σ where R is
//     the total remaining work of active jobs and C_Σ = ΣCᵢ, so once
//     (d−t)(1−U) − R − C_Σ exceeds the minimum found so far no later
//     deadline can lower it.
//
// If a configured scan budget is exhausted before either cutoff
// applies, the analyzer returns a conservative (smaller) slack value
// that remains sound: min(found, max(0, bound-at-cutoff)).
//
// # Incremental analysis
//
// The two cutoffs above terminate the scan but do so late: the
// utilization envelope R + U·(d−t) + C_Σ is loose by up to C_Σ, so
// after the slack minimum has been found (almost always within the
// first few deadlines — the "front" of active jobs and first
// releases) the scan keeps walking deadlines only to prove that
// nothing later can be worse. The incremental mode replaces that tail
// walk with a precomputed landscape: a demandGrid holding every
// deadline residue of one hyperperiod with prefix demand sums, suffix
// slack minima, and burst-deviation envelopes (see grid.go). At each
// scanned deadline the analyzer asks the grid, in O(log m), whether
// any unscanned deadline could lower the slack minimum or raise the
// intensity maximum past the utilization clamp; the first time the
// answer is no — with a float-noise margin — the scan stops with
// exactly the readings the full scan would have produced. The grid is
// conservative by construction (it assumes every release stream is as
// early as its residue class allows, so delayed streams and
// activity-window skips only make the real demand smaller), which
// keeps the certificate sound and the returned values byte-identical
// to the retained full-rescan path; the differential fuzz tests pin
// that equivalence across the scenario corpus, generated scenario
// documents, and randomized task sets. SetFullRescan(true) disables the
// certificate and restores the verbatim pre-grid behavior as the
// crosscheck oracle.
package core

import (
	"math"
	"math/bits"

	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

// Analyzer performs slack-time analysis for one task set. It is
// stateless with respect to the simulation (all dynamic state arrives
// through the Slack arguments) and reusable across runs; the counters
// and the reused scratch buffers are the only mutable fields.
//
// Concurrency contract: an Analyzer is NOT safe for concurrent use.
// Analyze reuses per-instance scratch buffers so that steady-state
// calls allocate nothing, which means two goroutines calling into the
// same Analyzer race on them. Give every goroutine (every concurrent
// simulation) its own Analyzer — they are cheap to construct — as the
// parallel experiment harness does by building one policy instance
// per run.
type Analyzer struct {
	ts       *rtm.TaskSet
	key      []gridKey // content key for ReuseFor (and the grid cache)
	util     float64   // worst-case utilization
	totalC   float64   // ΣCi
	hyper    float64   // hyperperiod, 0 when unknown
	maxScan  int       // hard cap on scanned deadlines per call
	phantoms []phantom

	// grid is the precomputed hyperperiod demand landscape driving
	// the incremental certificate; nil when the hyperperiod is
	// unknown or too large (the analyzer then always full-scans).
	grid *demandGrid
	// fullRescan disables the certificate, restoring the verbatim
	// pre-grid scan as the differential-testing oracle.
	fullRescan bool
	// certSlop is the float-noise margin the certificate must clear
	// before stopping a scan early (scale-aware, set once).
	certSlop float64
	// slackOnly marks the current call as needing only the slack
	// reading (set by Slack, cleared on return): the certificate may
	// then skip its intensity clauses, which are the late stoppers —
	// the deviation envelope cannot rule out a far intensity peak
	// until the scan nears it, while the slack minimum is usually
	// pinned within the first few deadlines. The slack value is
	// byte-identical either way; only the (discarded) intensity
	// reading would be under-scanned.
	slackOnly bool

	// adaptive horizon (off by default, see SetAdaptiveHorizon):
	// caps each scan at a multiple of the deepest scan index that
	// ever improved a reading, degrading conservatively like the
	// budget cap when exceeded.
	adaptive    bool
	adaptCap    int
	deepestImpr int

	// The slack staircase (see SetStairCapture): every scanned
	// candidate deadline with its constant c_d = d − h(t0, d), plus a
	// sentinel bounding the unscanned tail, so StairBound can report
	// a sound lower bound on the current slack at any later query
	// time in amortized O(1) — with expired candidates leaving the
	// minimum (how slack recovers as each tight deadline passes) and
	// executed or reclaimed demand lifting it (StairCredit).
	stairOn     bool
	stairD      []float64 // staircase deadlines, increasing
	stairC      []float64 // c_d = d − h(t0, d) per candidate
	stairCur    int       // expiry cursor for StairBound queries
	stairCredit float64   // demand gone from h since t0, uniform lift
	stairLast   float64   // last scanned deadline: the tail's near edge
	// stairRMQ is a sparse table over stairC (level k at offset k·n,
	// entry j = min of stairC[j .. j+2^k)), rebuilt per analysis so
	// StairBound answers any range minimum in O(1). tailCol is the
	// scalar tail bound sitting past the last candidate (+Inf when the
	// grid tail serves instead). liftLo/liftW are the suffix credits:
	// liftW[i] lifts every candidate at index ≥ liftLo[i] (sorted,
	// merged by boundary; see StairCredit).
	stairRMQ  []float64
	tailCol   float64
	liftLo    []int
	liftW     []float64
	stairAdvT float64 // last stairAdvance timestamp (idempotence guard)
	// stairFront caches stairFrontDeadline() and stairB caches the
	// time-independent part of StairBound (min over candidates, tail
	// and sentinel, before the −t1 + stairCredit terms). Both change
	// only when a cursor actually moves or a non-uniform credit lands
	// (never on plain time passage or uniform credits), so the hot
	// decision path reads two floats instead of recomputing.
	stairFront float64
	stairB     float64
	stairBOK   bool
	// Grid-backed tail (see StairBound): the unscanned remainder of
	// the deadline axis served from the hyperperiod grid by a cursor
	// over its canonical slots, so expired tail deadlines leave the
	// minimum exactly like captured entries do. tailC0 folds the
	// call-time constants (q0·H − h − runf + cumBefore); tailBase is
	// the absolute start of the cursor's current window, tailAcc the
	// accumulated (1−U)·H shift of later windows.
	tailValid  bool
	tailC0     float64
	tailBase   float64
	tailAcc    float64
	tailJ      int
	tailCredit float64 // credit taken by the tail alone (see StairCredit)
	// Unfolded-entry sentinel: a static c-bound covering active jobs
	// whose deadlines lay beyond the scan stop (+Inf when none), with
	// the earliest such deadline gating credits against it.
	entSent  float64
	entFront float64

	// Scratch buffers reused across Analyze calls (see the
	// concurrency contract above). entries grows to the high-water
	// active+phantom count; streams is fixed at the task count.
	// entCum/entSuf hold the per-call entry prefix sums and suffix
	// slack bounds the certificate uses to cover entries the scan
	// has not folded yet.
	entries []phantom
	streams []stream
	entCum  []float64
	entSuf  []float64

	// instrumentation
	calls    float64
	scanned  float64
	capped   float64
	incHits  float64 // scans stopped early by the grid certificate
	rebuilds float64 // scans that ran to a full (uncertified) stop
	adCapped float64 // scans truncated by the adaptive horizon
	counters map[string]float64

	// Per-call provenance for the flight recorder: how the most
	// recent Analyze terminated. Valid until the next Analyze call.
	// lastCal records whether it walked the deadline calendar.
	lastScan  int
	lastCert  bool
	lastTrunc bool
	lastCal   bool

	// certify's grid-boundary cursor (see slotsPast): the window of
	// the previous scan point and its first slot past it, reset by
	// every Analyze call.
	certQ   float64
	certIdx int
}

// phantom is synthetic demand used by the no-reclaim ablation: the
// unused worst-case allowance of an early-completed job, kept until
// its deadline passes.
type phantom struct {
	deadline float64
	rem      float64
}

// DefaultMaxScan bounds the number of deadlines examined per
// analysis; it is far above what the cutoffs need for any workload in
// the evaluation and exists only as a safety valve (exceeding it
// degrades slack to a conservative value, never soundness).
const DefaultMaxScan = 1 << 20

// NewAnalyzer builds an Analyzer for ts.
func NewAnalyzer(ts *rtm.TaskSet) *Analyzer {
	n := len(ts.Tasks)
	a := &Analyzer{
		ts:      ts,
		maxScan: DefaultMaxScan,
		entries: make([]phantom, 0, n),
		streams: make([]stream, n),
	}
	a.key = gridKeyOf(ts)
	a.util = ts.Utilization()
	a.totalC = ts.TotalWCET()
	if h, ok := ts.Hyperperiod(); ok {
		a.hyper = h
	}
	a.grid = buildDemandGrid(a)
	a.certSlop = 1e-9 * (1 + a.hyper + a.totalC)
	a.adaptCap = DefaultMaxScan
	a.stairAdvT = math.Inf(-1)
	a.stairFront = math.Inf(-1)
	return a
}

// Reset clears all run state — counters, phantom demand, staircase
// and tail cursors — returning the Analyzer to its just-constructed
// condition so a policy can reuse it (and every scratch buffer it has
// grown) across simulation runs of the same task set instead of
// rebuilding it each Reset.
func (a *Analyzer) Reset() {
	a.ResetCounters()
	a.stairD = a.stairD[:0]
	a.stairC = a.stairC[:0]
	a.liftLo, a.liftW = a.liftLo[:0], a.liftW[:0]
	a.stairCur, a.stairCredit, a.stairLast = 0, 0, 0
	a.stairAdvT = math.Inf(-1)
	a.stairFront = math.Inf(-1)
	a.stairBOK = false
	a.tailCol = 0
	a.tailValid, a.tailCredit = false, 0
	a.entSent, a.entFront = 0, 0
	if a.adaptive {
		a.adaptCap, a.deepestImpr = adaptiveMinCap, 0
	}
}

// ReuseFor reports whether this analyzer can serve ts — same task
// content, compared field by field exactly like the grid cache key
// (never by pointer: a recycled TaskSet allocation must not alias
// stale derived state) — and, when it can, resets the run state and
// rebinds to ts. Policies call this from their own Reset so repeated
// runs of one task set (replications, benchmark loops, serving paths)
// keep the analyzer and every scratch buffer it has grown, instead of
// re-deriving grid, envelopes, and buffers each time.
func (a *Analyzer) ReuseFor(ts *rtm.TaskSet) bool {
	if len(ts.Tasks) != len(a.key) {
		return false
	}
	for i, t := range ts.Tasks {
		k := gridKey{period: t.Period, wcet: t.WCET, dl: t.RelDeadline()}
		if k != a.key[i] {
			return false
		}
	}
	a.ts = ts
	a.Reset()
	return true
}

// SetFullRescan toggles the full-rescan oracle mode: when on, the
// grid certificate is ignored and every call walks the deadline axis
// to the classic cutoffs, byte-for-byte the pre-incremental behavior.
// The differential tests run the analyzer in both modes and require
// identical outputs.
func (a *Analyzer) SetFullRescan(on bool) { a.fullRescan = on }

// SetAdaptiveHorizon toggles the adaptive scan horizon (off by
// default). When enabled, the analyzer tracks the deepest scan index
// that ever improved a reading and caps subsequent scans at
// adaptiveHeadroom times that depth (floored at adaptiveMinCap). A
// capped scan degrades exactly like an exhausted scan budget — the
// slack falls to the sound utilization lower bound at the cap point
// and the intensity to 1 — so deadline safety is preserved verbatim;
// only energy can suffer, and docs/performance.md derives the bound
// on how much. The certificate stays active, so the cap only fires on
// scans the certificate could not stop early.
func (a *Analyzer) SetAdaptiveHorizon(on bool) {
	a.adaptive = on
	if on {
		a.adaptCap = adaptiveMinCap
		a.deepestImpr = 0
	} else {
		a.adaptCap = DefaultMaxScan
	}
}

const (
	// adaptiveHeadroom multiplies the deepest observed improvement
	// index into the scan cap, absorbing workload drift.
	adaptiveHeadroom = 4
	// adaptiveMinCap floors the adaptive cap so cold starts are not
	// truncated into uselessness.
	adaptiveMinCap = 16
)

// SetStairCapture enables the slack staircase (sticky; off by
// default, no effect on the slack or intensity readings). With
// capture on, every Analyze call at time t0 records each scanned
// candidate deadline d together with its constant c_d = d − h(t0, d),
// plus a sentinel covering the unscanned tail, so StairBound can
// answer "how low can the system slack be right now?" at any later
// query time in amortized O(1) without re-analyzing. This is what
// lets the policy fast path skip whole analyses, not just truncate
// them: between scheduling points the demand landscape only loses
// mass, so the captured staircase stays a sound lower bound until
// the next rebuild.
func (a *Analyzer) SetStairCapture(on bool) {
	a.stairOn = on
	if !on || cap(a.stairD) > 0 {
		return
	}
	// Pre-size the capture buffers to the typical certified scan depth
	// (a few deadlines per task before the certificate stops the walk).
	// The caps are hints, not limits: a deeper scan regrows each slice
	// independently via append, and the sparse table is sized exactly
	// at build time.
	est := 3*len(a.ts.Tasks) + 8
	buf := make([]float64, 0, 2*est)
	a.stairD = buf[:0:est]
	a.stairC = buf[est : est : 2*est]
}

// StairBound returns a sound lower bound at time t1 on the current
// system slack L(t1), from the staircase captured by the most recent
// Analyze at t0 ≤ t1. Query times must be non-decreasing between
// analyses; the cursors advance monotonically.
//
// Soundness: for a fixed deadline d, h(t, d) never grows after the
// analysis — every future release, earliest jitter arrival, and
// phantom was pre-counted, while execution, reclaimed completions,
// and expired phantoms only remove demand — so a captured
// candidate's slack at t1 is at least c_d − t1 (plus any credit,
// see StairCredit). Candidates beyond the scan stop come from three
// covers, each the minimum-taking analogue of the scan it replaces:
//
//   - the grid tail: every canonical slot of the hyperperiod grid
//     past the scan stop, bounded exactly as in certify
//     (slack(e) ≥ pos[j] − cum[j] + w·(1−U)·H + tailC0 − t0) and
//     walked by a cursor so that expired slots leave the minimum —
//     this is what lets the bound RECOVER between analyses instead
//     of decaying at rate 1 until forced to rebuild;
//   - the unfolded-entry sentinel for active jobs with deadlines
//     beyond the scan stop (rare; static and conservative);
//   - with no usable grid (unknown/oversized hyperperiod, off-grid
//     jitter at t0, full-rescan or truncated-horizon modes), a
//     scalar sentinel minL(t0) + t0 — sound for every terminating
//     cutoff, poisoned to −Inf when the scan ended on an extreme
//     reading that proved nothing about the tail.
func (a *Analyzer) StairBound(t1 float64) float64 {
	// Inlinable fast path: before the earliest covered deadline no
	// cursor can move (stairAdvance would be a no-op, so it is safely
	// skipped), and a valid cached column minimum answers the query
	// with two adds.
	if t1 < a.stairFront && a.stairBOK {
		return a.stairB - t1 + a.stairCredit
	}
	return a.stairBoundSlow(t1)
}

func (a *Analyzer) stairBoundSlow(t1 float64) float64 {
	a.stairAdvance(t1)
	if a.stairBOK {
		return a.stairB - t1 + a.stairCredit
	}
	// Minimum over the live candidates, segment by segment between the
	// suffix-lift boundaries: within a segment every candidate carries
	// the same applied lift, so one range-minimum plus the lift bounds
	// it, and the per-segment minimum of those bounds is exact.
	n := len(a.stairC)
	b := math.Inf(1)
	applied := 0.0
	li := 0
	for li < len(a.liftLo) && a.liftLo[li] <= a.stairCur {
		applied += a.liftW[li]
		li++
	}
	start := a.stairCur
	for ; li < len(a.liftLo); li++ {
		if end := a.liftLo[li]; end > start {
			if v := a.stairRangeMin(start, end) + applied; v < b {
				b = v
			}
			start = end
		}
		applied += a.liftW[li]
	}
	if start < n {
		if v := a.stairRangeMin(start, n) + applied; v < b {
			b = v
		}
	}
	// The scalar tail column lies past every candidate, so every kept
	// lift applies to it (+Inf when the grid tail serves instead).
	if tv := a.tailCol + applied; tv < b {
		b = tv
	}
	if a.entSent < b {
		b = a.entSent
	}
	if a.tailValid {
		g := a.grid
		tb := g.sufMin[a.tailJ] + a.tailAcc
		if lw := g.allMin + a.tailAcc + (g.hyper - g.total); lw < tb {
			tb = lw // every later window, minimized at the next one
		}
		if tb += a.tailC0 + a.tailCredit; tb < b {
			b = tb
		}
	}
	a.stairB, a.stairBOK = b, true
	return b - t1 + a.stairCredit
}

// stairRangeMin returns min stairC[lo..hi) from the sparse table;
// requires hi > lo.
func (a *Analyzer) stairRangeMin(lo, hi int) float64 {
	k := bits.Len(uint(hi-lo)) - 1
	n := len(a.stairC)
	v1 := a.stairRMQ[k*n+lo]
	if v2 := a.stairRMQ[k*n+hi-1<<k]; v2 < v1 {
		return v2
	}
	return v1
}

// StairCredit lifts the staircase by w: demand that left h since the
// analysis — the observed executed work of a dispatched job, or the
// unused allowance of a completed one, either way with absolute
// deadline dl. A cover may take the lift only if every candidate it
// still holds pre-counted that demand, i.e. lies at or beyond dl
// (h(t, d) includes jobs with deadline exactly d, so the test is
// inclusive). When dl is at or before the overall front the credit is
// uniform; otherwise it is applied per cover: the captured entries
// from the first index with stairD ≥ dl take it in place (with the
// suffix minima rebuilt over the live range), and the tail and entry
// sentinels take it exactly when their own fronts lie at or past dl.
// The next analysis clears every credit: it sees the removed demand
// directly.
func (a *Analyzer) StairCredit(t1, dl, w float64) {
	// Inlinable fast path: with t1 before the earliest covered
	// deadline the cursors cannot move (stairAdvance would be a
	// no-op), and a credit at or before that front is uniform — one
	// add.
	if t1 < a.stairFront && dl <= a.stairFront {
		a.stairCredit += w
		return
	}
	a.stairCreditSlow(t1, dl, w)
}

func (a *Analyzer) stairCreditSlow(t1, dl, w float64) {
	a.stairAdvance(t1)
	if dl <= a.stairFront {
		a.stairCredit += w
		return
	}
	a.stairBOK = false
	if a.tailValid && dl <= a.tailBase+a.grid.pos[a.tailJ] {
		a.tailCredit += w
	}
	if dl <= a.entFront {
		a.entSent += w
	}
	n := len(a.stairD)
	lo, hi := a.stairCur, n
	for lo < hi {
		mid := (lo + hi) / 2
		if a.stairD[mid] < dl {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= n {
		// dl lies beyond every captured candidate: the scalar tail
		// cannot order its deadlines against dl, so the stair part of
		// the credit is dropped (conservative; the grid tail and entry
		// sentinel took their shares above).
		return
	}
	for i := range a.liftLo {
		if a.liftLo[i] == lo {
			a.liftW[i] += w
			return
		}
	}
	if len(a.liftLo) == maxStairLifts {
		a.compactLifts()
	}
	if len(a.liftLo) < maxStairLifts {
		i := len(a.liftLo)
		a.liftLo = append(a.liftLo, lo)
		a.liftW = append(a.liftW, w)
		for i > 0 && a.liftLo[i-1] > lo {
			a.liftLo[i-1], a.liftLo[i] = a.liftLo[i], a.liftLo[i-1]
			a.liftW[i-1], a.liftW[i] = a.liftW[i], a.liftW[i-1]
			i--
		}
		return
	}
	// Boundary list still full: fold the credit into the nearest LATER
	// boundary — under-crediting the candidates in between, the
	// conservative direction — or drop it when none lies later. (The
	// scalar tail column still receives it either way iff a boundary
	// takes it, which matches its gate dl ≤ stairLast exactly.)
	for i := range a.liftLo {
		if a.liftLo[i] > lo {
			a.liftW[i] += w
			return
		}
	}
}

// compactLifts merges every lift whose boundary the expiry cursor has
// already passed into a single base entry at index 0. Those boundaries
// can never cut a query segment again (queries start at the cursor,
// which only advances), so widening them to "all candidates" changes
// no future answer while freeing list slots for new boundaries.
func (a *Analyzer) compactLifts() {
	base := 0.0
	kept := 0
	for i := range a.liftLo {
		if a.liftLo[i] <= a.stairCur {
			base += a.liftW[i]
		} else {
			a.liftLo[kept], a.liftW[kept] = a.liftLo[i], a.liftW[i]
			kept++
		}
	}
	if base == 0 {
		return
	}
	a.liftLo, a.liftW = a.liftLo[:kept+1], a.liftW[:kept+1]
	copy(a.liftLo[1:], a.liftLo[:kept])
	copy(a.liftW[1:], a.liftW[:kept])
	a.liftLo[0], a.liftW[0] = 0, base
}

// maxStairLifts bounds the suffix-lift boundary list; between two
// analyses only a handful of distinct deadlines are ever credited (the
// running job's, plus completion reclaims), so the cap is generous.
const maxStairLifts = 8

// stairAdvance moves the expiry cursors (captured entries and grid
// tail) up to t1. Idempotent per timestamp: a decision point queries
// the staircase several times (harvest credits, then the bound) at one
// t1, so repeat calls return immediately.
func (a *Analyzer) stairAdvance(t1 float64) {
	if t1 == a.stairAdvT {
		return
	}
	a.stairAdvT = t1
	if t1 < a.stairFront {
		return // no cursor can move before the earliest covered deadline
	}
	moved := false
	for a.stairCur < len(a.stairD) && a.stairD[a.stairCur] <= t1 {
		a.stairCur++
		moved = true
	}
	if a.tailValid {
		g := a.grid
		if t1 >= a.tailBase+g.hyper {
			// Whole windows expired (a long idle gap): jump instead
			// of stepping slot by slot.
			skip := math.Floor((t1 - a.tailBase) / g.hyper)
			a.tailBase += skip * g.hyper
			a.tailAcc += skip * (g.hyper - g.total)
			a.tailJ = g.pastIndex(t1-a.tailBase, 0)
			moved = true
		}
		for a.tailJ < len(g.pos) && a.tailBase+g.pos[a.tailJ] <= t1 {
			a.tailJ++
			moved = true
		}
		if a.tailJ == len(g.pos) {
			a.tailJ = 0
			a.tailBase += g.hyper
			a.tailAcc += g.hyper - g.total
		}
	}
	if moved {
		a.stairBOK = false
		a.stairFront = a.stairFrontDeadline()
	}
}

// stairFrontDeadline returns the earliest deadline the staircase
// still covers — the gate a credit's deadline must not exceed.
func (a *Analyzer) stairFrontDeadline() float64 {
	front := a.entFront
	if a.stairCur < len(a.stairD) {
		if d := a.stairD[a.stairCur]; d < front {
			front = d
		}
	}
	if a.tailValid {
		if f := a.tailBase + a.grid.pos[a.tailJ]; f < front {
			front = f
		}
	} else if a.stairLast < front {
		// Scalar-sentinel fallback: the tail starts just past the
		// last scanned deadline.
		front = a.stairLast
	}
	return front
}

// SetMaxScan overrides the per-call deadline scan budget (used by the
// truncated-horizon ablation). Values < 1 restore the default.
func (a *Analyzer) SetMaxScan(n int) {
	if n < 1 {
		n = DefaultMaxScan
	}
	a.maxScan = n
}

// AddPhantom registers phantom demand (no-reclaim ablation).
func (a *Analyzer) AddPhantom(deadline, rem float64) {
	if rem <= 0 {
		return
	}
	if a.phantoms == nil {
		// Pre-size to the task count: with implicit deadlines at most
		// one phantom per task is live at a time, so the buffer
		// reaches steady state after the first hyperperiod.
		a.phantoms = make([]phantom, 0, len(a.ts.Tasks))
	}
	a.phantoms = append(a.phantoms, phantom{deadline: deadline, rem: rem})
}

// Counters exposes instrumentation for the overhead experiments. The
// returned map is owned by the Analyzer and refreshed in place on
// every call — the metrics loop scrapes it repeatedly, and handing
// out a fresh map per scrape was measurable allocation churn. Callers
// must not retain it across Reset or mutate it concurrently with the
// analyzer (the usual single-goroutine contract).
func (a *Analyzer) Counters() map[string]float64 {
	if a.counters == nil {
		a.counters = make(map[string]float64, 10)
	}
	c := a.counters
	c["slack_calls"] = a.calls
	c["slack_scanned"] = a.scanned
	c["slack_budget_capped"] = a.capped
	c["slack_avg_scan_len"] = safeDiv(a.scanned, a.calls)
	c["slack_phantom_buffer"] = float64(len(a.phantoms))
	c["slack_incremental_hits"] = a.incHits
	c["slack_rebuilds"] = a.rebuilds
	c["slack_adaptive_capped"] = a.adCapped
	return c
}

// ResetCounters zeroes instrumentation and drops phantom demand.
func (a *Analyzer) ResetCounters() {
	a.calls, a.scanned, a.capped = 0, 0, 0
	a.incHits, a.rebuilds, a.adCapped = 0, 0, 0
	a.lastScan, a.lastCert, a.lastTrunc = 0, false, false
	a.phantoms = a.phantoms[:0]
}

// LastScan reports how the most recent Analyze call terminated: the
// number of deadlines scanned, whether the demand-grid certificate
// stopped the scan early, and whether the scan was truncated by the
// adaptive horizon or the scan budget (conservative degradation).
// Valid until the next Analyze call; used for per-decision
// provenance.
func (a *Analyzer) LastScan() (scanned int, certified, truncated bool) {
	return a.lastScan, a.lastCert, a.lastTrunc
}

// Slack returns L(t) ≥ 0 given the currently active jobs and the next
// release time of each task (periodic continuation). The result is
// the exact minimum when the scan completes via a cutoff, or a sound
// underestimate if the scan budget is exhausted.
func (a *Analyzer) Slack(t float64, active []*sim.JobState, nextReleaseOf func(int) float64) float64 {
	a.slackOnly = true
	l, _ := a.Analyze(t, active, nextReleaseOf)
	a.slackOnly = false
	return l
}

// Intensity returns the critical-interval intensity
//
//	s*(t) = max over deadlines d of  h(t, d) / (d − t),
//
// the minimal constant speed that keeps every current and future
// deadline feasible from time t onward. It is the dual reading of the
// same slack-time analysis: where Slack reports the largest stretch
// the *current job* may absorb, Intensity reports the uniform speed
// that spreads all analyzed slack evenly over the outstanding work —
// the distribution a convex power curve prefers. The result is exact
// under the scan cutoffs and degrades to 1 (full speed) if the scan
// budget is exhausted.
func (a *Analyzer) Intensity(t float64, active []*sim.JobState, nextReleaseOf func(int) float64) float64 {
	_, s := a.Analyze(t, active, nextReleaseOf)
	return s
}

// Analyze performs one scan of the slack-time analysis and returns
// both readings: the minimum slack L(t) and the critical intensity
// s*(t). See the package comment for definitions, soundness, and the
// termination argument.
func (a *Analyzer) Analyze(t float64, active []*sim.JobState, nextReleaseOf func(int) float64) (slack, intensity float64) {
	a.calls++
	a.lastTrunc = false
	a.dropExpiredPhantoms(t)

	// Active (and phantom) demand entries sorted by deadline. The
	// slice is per-Analyzer scratch: steady-state calls allocate
	// nothing (see the Analyzer concurrency contract).
	entries := a.entries[:0]
	var activeRem float64
	for _, j := range active {
		r := j.RemainingWCET()
		activeRem += r
		entries = append(entries, phantom{deadline: j.AbsDeadline, rem: r})
	}
	for _, p := range a.phantoms {
		activeRem += p.rem
		entries = append(entries, p)
	}
	sortPhantoms(entries)
	a.entries = entries

	// Per-task future release streams: deadline of the next
	// not-yet-released job of each task. Also per-Analyzer scratch,
	// fixed at the task count. The certificate additionally needs
	// every stream to sit on its nominal k·Period release grid — the
	// grid's residue classes assume it; a jitter-pending release
	// (NextReleaseOf = "right now") is off-grid and disables the
	// certificate for this call only.
	streams := a.streams
	maxFirstDeadline, minFirstDeadline := t, math.Inf(1)
	useCert := a.grid != nil && !a.fullRescan && a.maxScan == DefaultMaxScan
	useCal := useCert && a.grid.calPos != nil
	for i, task := range a.ts.Tasks {
		r := nextReleaseOf(i)
		nd := r + task.RelDeadline()
		streams[i] = stream{
			nextDeadline: nd,
			period:       task.Period,
			wcet:         task.WCET,
		}
		if nd > maxFirstDeadline {
			maxFirstDeadline = nd
		}
		if nd < minFirstDeadline {
			minFirstDeadline = nd
		}
		if useCert {
			k := math.Round(r / task.Period)
			if kp := k * task.Period; math.Abs(r-kp) > 1e-9*(1+r) {
				useCert = false
			} else if r != kp {
				useCal = false
			}
		}
	}
	// The calendar walk (see demandGrid.calPos) replaces the n-way
	// stream merge when every stream sits exactly on its k·Period
	// release grid and the scan stays within exact integer range: the
	// streams' deadlines are then precisely the calendar entries at or
	// past each stream's first deadline, and folding the entries of one
	// position in task order adds the same terms in the same order.
	useCal = useCal && useCert && maxFirstDeadline+2*a.grid.hyper < calExactLimit
	a.lastCal = useCal
	a.certQ = math.NaN()

	// Periodicity cutoff d* (see package comment): beyond
	// maxFirstDeadline + H the slack function only repeats shifted
	// upward by (1-U)·H per hyperperiod.
	horizon := math.Inf(1)
	if a.hyper > 0 {
		horizon = maxFirstDeadline + a.hyper
	}

	// Entry suffix bounds for the certificate: entCum[l] is the
	// demand of entries[0..l]; entSuf[l] is the suffix minimum of
	// φ_l = (1−U)·e_l − entCum[l], which turns "slack at any
	// unfolded entry deadline" into one precomputed lookup (see
	// certify). O(#entries) once per call, so the certificate can
	// stop the scan long before a far-deadline active job is folded.
	var totalRem float64
	if useCert && len(entries) > 0 {
		gu := a.grid.util
		cum := a.entCum[:0]
		for _, e := range entries {
			totalRem += e.rem
			cum = append(cum, totalRem)
		}
		k := len(entries)
		suf := a.entSuf
		if cap(suf) < k+1 {
			suf = make([]float64, k+1)
		} else {
			suf = suf[:k+1]
		}
		suf[k] = math.Inf(1)
		for l := k - 1; l >= 0; l-- {
			phi := (1-gu)*entries[l].deadline - cum[l]
			suf[l] = math.Min(phi, suf[l+1])
		}
		a.entCum, a.entSuf = cum, suf
	}

	var (
		h         float64 // accumulated demand at the scan point
		minL      = math.Inf(1)
		maxS      float64 // running max of h/(d-t)
		ai        int     // next active entry
		scanCnt   int
		lastImpr  int // deepest scan index that improved a reading
		certified bool
		dLast     float64 // last scanned candidate deadline
		extreme   bool    // scan ended on an extreme reading
	)
	if a.stairOn {
		a.stairD = a.stairD[:0]
		a.stairC = a.stairC[:0]
	}
	var cal calCursor
	if useCal {
		cal = a.grid.cursorAt(minFirstDeadline)
	}
	for {
		// Next candidate deadline across active entries and streams.
		d := math.Inf(1)
		if ai < len(entries) {
			d = entries[ai].deadline
		}
		if useCal {
			// Entries before a stream's first deadline belong to jobs
			// already released (or skipped by an activity window):
			// they are no candidates.
			for cal.d < streams[cal.task[cal.j]].nextDeadline {
				cal.next()
			}
			if cal.d < d {
				d = cal.d
			}
		} else {
			for _, s := range streams {
				if s.nextDeadline < d {
					d = s.nextDeadline
				}
			}
		}
		if math.IsInf(d, 1) || d > horizon+sim.Eps {
			break
		}
		// Fold in every demand due exactly at d.
		for ai < len(entries) && entries[ai].deadline <= d {
			h += entries[ai].rem
			ai++
		}
		if useCal {
			for ; cal.d <= d; cal.next() {
				if i := cal.task[cal.j]; cal.d >= streams[i].nextDeadline {
					h += streams[i].wcet
				}
			}
		} else {
			for i := range streams {
				for streams[i].nextDeadline <= d {
					h += streams[i].wcet
					streams[i].nextDeadline += streams[i].period
				}
			}
		}
		scanCnt++
		dLast = d
		if d > t { // deadlines at or before t contribute demand only
			l := d - t - h
			if l < minL {
				minL = l
				lastImpr = scanCnt
			}
			if a.stairOn {
				// Staircase capture (see StairBound): c_d = d − h,
				// a constant this candidate's slack can only exceed
				// at later query times.
				a.stairD = append(a.stairD, d)
				a.stairC = append(a.stairC, l+t)
			}
			if s := h / (d - t); s > maxS {
				maxS = s
				if s > a.util {
					lastImpr = scanCnt
				}
			}
		}
		if minL <= 0 || maxS >= 1 {
			// Slack exhausted / full speed required: neither reading
			// can get more extreme for a feasible system.
			extreme = true
			break
		}
		// Utilization cutoffs: stop once no later deadline can lower
		// the slack minimum or raise the intensity maximum. Beyond
		// the scan point, h(t,d) ≤ activeRem + C_Σ + U·(d−t).
		if a.util < 1 {
			envelope := activeRem + a.totalC
			slackDone := (d-t)*(1-a.util)-envelope > minL
			intensityDone := maxS > a.util && envelope/(d-t) < maxS-a.util
			if slackDone && intensityDone {
				break
			}
		}
		// Incremental certificate: ask the precomputed hyperperiod
		// landscape (plus the per-call entry suffix bounds) whether
		// any deadline beyond d — grid slot or unfolded entry — could
		// still lower the slack minimum or push the intensity maximum
		// past its utilization clamp. Both structures over-count the
		// unscanned demand (delayed streams count at their earliest
		// residue, unfolded entries in full), so a positive answer is
		// sound — and carries a float-noise margin, keeping the early
		// stop byte-identical to the full rescan.
		if useCert && d > t && !math.IsInf(minL, 1) {
			var sPre float64
			runf, entMin := 0.0, math.Inf(1)
			if len(entries) > 0 {
				if ai > 0 {
					sPre = a.entCum[ai-1]
				}
				runf = totalRem - sPre
				entMin = a.entSuf[ai]
			}
			if a.certify(t, d, h, sPre, runf, entMin, minL, maxS) {
				certified = true
				break
			}
		}
		if a.adaptive && scanCnt >= a.adaptCap {
			// Adaptive horizon: degrade conservatively, exactly like
			// an exhausted scan budget (sound, never optimistic).
			a.adCapped++
			a.lastTrunc = true
			lb := (d-t)*(1-a.util) - activeRem - a.totalC
			if lb < minL {
				minL = lb
			}
			maxS = 1
			break
		}
		if scanCnt >= a.maxScan {
			// Budget exhausted: degrade both readings to their sound
			// conservative values for everything beyond d.
			a.capped++
			a.lastTrunc = true
			lb := (d-t)*(1-a.util) - activeRem - a.totalC
			if lb < minL {
				minL = lb
			}
			maxS = 1
			break
		}
	}
	a.scanned += float64(scanCnt)
	a.lastScan, a.lastCert = scanCnt, certified
	if certified {
		a.incHits++
	} else {
		a.rebuilds++
	}
	if a.adaptive {
		if lastImpr > a.deepestImpr {
			a.deepestImpr = lastImpr
		}
		if c := adaptiveHeadroom * a.deepestImpr; c > adaptiveMinCap {
			a.adaptCap = c
		} else {
			a.adaptCap = adaptiveMinCap
		}
	}

	// Far-deadline limit: as d → ∞ the intensity approaches U from
	// below along the periodic envelope, and past the periodicity
	// cutoff every ratio is bounded by max(maxS, U) (mediant
	// inequality on (h+U·H)/(Δ+H)).
	if a.util > maxS {
		maxS = a.util
	}
	if maxS > 1 {
		maxS = 1
	}
	// Finalize the staircase (see StairBound): suffix minima over the
	// captured constants, the unscanned-tail cover, and the
	// cursor/credit reset. With a usable grid the tail is served live
	// from the hyperperiod landscape — anchored at the scan stop with
	// exactly certify's inequality, so it stays valid under every
	// termination mode, extreme stops included. Otherwise a scalar
	// sentinel minL + t stands in; minL here is pre-clamp, so it is a
	// true lower bound even when the raw minimum went negative, and an
	// extreme-reading stop — which proved nothing about the tail —
	// poisons it instead.
	if a.stairOn {
		tail := math.Inf(1)
		a.tailValid, a.tailCredit = false, 0
		a.entSent, a.entFront = math.Inf(1), math.Inf(1)
		if useCert && dLast > 0 && a.grid.hyper > a.grid.total {
			g := a.grid
			slop := a.certSlop + 1e-12*math.Abs(t)
			q0 := math.Floor(dLast / g.hyper)
			rho0 := dLast - q0*g.hyper
			idx0 := a.slotsPast(q0, rho0, slop)
			var cumBefore float64
			if idx0 > 0 {
				cumBefore = g.cum[idx0-1]
			}
			var sPre, runf float64
			if len(entries) > 0 {
				if ai > 0 {
					sPre = a.entCum[ai-1]
				}
				runf = totalRem - sPre
			}
			a.tailC0 = q0*g.hyper - h - runf + cumBefore
			a.tailBase = q0 * g.hyper
			a.tailAcc = 0
			a.tailJ = idx0
			if a.tailJ == len(g.pos) {
				a.tailJ = 0
				a.tailBase += g.hyper
				a.tailAcc += g.hyper - g.total
			}
			a.tailValid = true
			if runf > 0 {
				// Active jobs not folded by the scan: cover them with
				// certify's deviation-envelope bound, gated for
				// credits by the earliest such deadline.
				a.entSent = a.entSuf[ai] + sPre - h + g.util*dLast - g.dev
				a.entFront = entries[ai].deadline
			}
		} else {
			tail = minL + t
			if extreme {
				tail = math.Inf(-1)
			}
		}
		// Sparse range-minimum table over the captured constants:
		// level k entry j holds min stairC[j .. j+2^k). Built once per
		// analysis (the rare event), it lets every StairBound query
		// between analyses answer segment minima in O(1) no matter how
		// the lift boundaries cut the staircase.
		k := len(a.stairC)
		levels := bits.Len(uint(k))
		rmq := a.stairRMQ
		if need := levels * k; cap(rmq) < need {
			rmq = make([]float64, need)
		} else {
			rmq = rmq[:need]
		}
		copy(rmq, a.stairC)
		for lev := 1; lev < levels; lev++ {
			half := 1 << (lev - 1)
			prev, row := (lev-1)*k, lev*k
			for j := 0; j+2*half <= k; j++ {
				v := rmq[prev+j]
				if v2 := rmq[prev+j+half]; v2 < v {
					v = v2
				}
				rmq[row+j] = v
			}
		}
		a.stairRMQ = rmq
		a.tailCol = tail
		a.liftLo, a.liftW = a.liftLo[:0], a.liftW[:0]
		a.stairCur = 0
		a.stairCredit = 0
		a.stairLast = dLast
		a.stairAdvT = math.Inf(-1)
		a.stairBOK = false
		a.stairFront = a.stairFrontDeadline()
	}

	if math.IsInf(minL, 1) {
		// No deadline scanned at all: an empty task set (no streams,
		// no active jobs). Nothing constrains the slack; report zero
		// conservatively.
		return 0, maxS
	}
	if minL < 0 {
		minL = 0
	}
	return minL, maxS
}

// certify reports whether the demand grid (plus the per-call entry
// suffix bounds) proves that no deadline beyond the scan point dP can
// lower the slack minimum below minL or raise the intensity maximum
// past its utilization clamp, so the scan may stop with exactly the
// readings the full walk would produce.
//
// Arguments beyond the readings: h is the demand folded so far, sPre
// the folded entry demand, runf the unfolded entry demand, entMin the
// precomputed suffix minimum of φ_l = (1−U)·e_l − entCum[l] over the
// unfolded entries. Preconditions (enforced at the call site): every
// release stream sits on its nominal k·Period grid, dP > t, minL is
// finite, and all unfolded entry deadlines exceed dP (the fold loop
// guarantees it).
//
// Derivation (see docs/performance.md for the long form). Write
// dP = q·H + ρ and let idx be the first grid slot past ρ (boundary
// slots stay "future" — the conservative side). Any unscanned grid
// deadline is a canonical slot e = q·H + w·H + pos[j] with w ≥ 0 and
// (w, j) ≥ (0, idx), and the future demand due in (dP, e] is at most
// w·total + cum[j] − cumBefore (streams can only be delayed relative
// to their residue class, never early) plus runf (every unfolded
// entry, counted in full). Hence
//
//	slack(e) ≥ (pos[j] − cum[j]) + w·(H − total) + off,
//	off = q·H − t − h − runf + cumBefore,
//
// whose minimum over the current window is sufMin[idx] + off and over
// every later window (monotone in w for U ≤ 1) is allMin + (H−total)
// + off. An unfolded entry deadline e_l is itself a candidate; with
// the deviation envelope demand(dP, e] ≤ util·(e−dP) + dev for the
// stream part and the entry prefix sums for the entry part,
//
//	slack(e_l) ≥ φ_l + (sPre − t − h + util·dP − dev),
//
// minimized by the precomputed entMin. For intensity either every
// unscanned ratio stays strictly below the utilization clamp, or the
// unified envelope h(e) ≤ h + runf + util·(e−dP) + dev caps every
// future ratio by util + A/(e−t), decreasing in e, below the maximum
// already found. Every comparison carries a slop margin scaled to the
// magnitudes involved, so float rounding can only keep the scan going
// — never stop it unsoundly — and the early stop is byte-identical.
func (a *Analyzer) certify(t, dP, h, sPre, runf, entMin, minL, maxS float64) bool {
	g := a.grid
	shift := g.hyper - g.total // (1−U)·H
	if shift < 0 {
		// Utilization at or above 1 within float noise: later windows
		// only get worse and no finite certificate exists.
		return false
	}
	// Scale-aware margin: certSlop covers the grid magnitudes, the
	// t-term covers per-window drift accumulated over long horizons.
	slop := a.certSlop + 1e-12*math.Abs(t)
	q := math.Floor(dP / g.hyper)
	rho := dP - q*g.hyper
	idx := a.slotsPast(q, rho, slop)
	var cumBefore float64
	if idx > 0 {
		cumBefore = g.cum[idx-1]
	}
	off := q*g.hyper - t - h - runf + cumBefore
	bound := g.sufMin[idx] + off // rest of the current window
	if b := g.allMin + shift + off; b < bound {
		bound = b // every later window, minimized at w = 1
	}
	if !(bound >= minL+slop) {
		return false
	}
	if runf > 0 {
		// Unfolded entry deadlines as slack candidates.
		if !(entMin+(sPre-t-h+g.util*dP-g.dev) >= minL+slop) {
			return false
		}
	}
	if a.slackOnly {
		return true // caller discards intensity; slack is certified
	}
	// Intensity, unified envelope: ratio(e) ≤ util + A/(e−t) for every
	// future candidate (grid slot or entry), with e−t > dP−t, so the
	// supremum sits at the scan point.
	A := h + runf + g.dev - g.util*(dP-t)
	if A <= -slop {
		return true // everything stays below the utilization clamp
	}
	if g.util+A/(dP-t) <= maxS-slop {
		return true // everything stays at or below the found maximum
	}
	// Sharper below-clamp clause, valid once all entries are folded:
	// anchored at the grid slots instead of the worst-case envelope.
	return runf == 0 && g.maxFU+h-cumBefore+g.util*(t-q*g.hyper) <= -slop
}

// slotsPast returns g.pastIndex(rho, slop) for the scan point q·H + rho
// from a cursor that only moves forward within one Analyze call: the
// scan points of a call only grow and slop is fixed per call, so within
// one window the answer can only advance. A new window (rare: once per
// hyperperiod scanned) repositions the cursor by binary search.
func (a *Analyzer) slotsPast(q, rho, slop float64) int {
	g := a.grid
	if q != a.certQ {
		a.certQ, a.certIdx = q, g.pastIndex(rho, slop)
		return a.certIdx
	}
	idx := a.certIdx
	for lim := rho - slop; idx < len(g.pos) && g.pos[idx] <= lim; idx++ {
	}
	a.certIdx = idx
	return idx
}

func (a *Analyzer) dropExpiredPhantoms(t float64) {
	// Fast path: most calls expire nothing; skip the compaction pass
	// (and its element moves) entirely then.
	expired := false
	for _, p := range a.phantoms {
		if p.deadline <= t {
			expired = true
			break
		}
	}
	if !expired {
		return
	}
	// In-place compaction into the same backing array — pre-sized by
	// AddPhantom, never reallocated here.
	keep := a.phantoms[:0]
	for _, p := range a.phantoms {
		if p.deadline > t {
			keep = append(keep, p)
		}
	}
	a.phantoms = keep
}

type stream struct {
	nextDeadline float64
	period       float64
	wcet         float64
}

func sortPhantoms(v []phantom) {
	// Insertion sort: entry counts are the number of active jobs
	// (≤ number of tasks) and stay tiny.
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for ; j >= 0 && v[j].deadline > x.deadline; j-- {
			v[j+1] = v[j]
		}
		v[j+1] = x
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
