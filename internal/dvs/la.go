package dvs

import (
	"math"
	"slices"

	"dvsslack/internal/sim"
)

// LAEDF is look-ahead EDF (Pillai & Shin, SOSP 2001). Instead of
// provisioning the worst case immediately, it plans to defer as much
// work as possible to *after* the earliest deadline dₙ — each task's
// outstanding work is pushed as close to its own deadline as the
// spare capacity (1 − U) of the interval allows — and then runs at
// the minimum speed that completes the non-deferrable remainder by
// dₙ:
//
//	U ← ΣCᵢ/Tᵢ;  x_total ← 0
//	for each task i in order of latest deadline first:
//	    U ← U − Cᵢ/Tᵢ
//	    x ← max(0, cᵢ − (1 − U)·(dᵢ − dₙ))        // non-deferrable work
//	    U ← U + (cᵢ − x)/(dᵢ − dₙ)               // deferred share
//	    x_total ← x_total + x
//	s = x_total / (dₙ − now)
//
// where cᵢ is the remaining worst-case work of task i's current job
// (zero once it completed) and dᵢ its current deadline (the next
// job's deadline after completion). Tasks whose deadline equals dₙ
// contribute their entire remaining work. Speeds above 1 are clamped
// by the engine; Pillai & Shin show the fallback to full speed keeps
// every deadline.
//
// LAEDF is the most aggressive of the prior heuristics: it often
// runs slower than ccEDF early in a busy interval at the cost of
// higher speeds later ("pay later"), which the cubic power curve can
// penalize — exactly the effect the paper's exact slack analysis
// removes.
type LAEDF struct {
	sim.NopHooks
	sys  sim.System
	util float64 // ΣCᵢ/Tᵢ

	// tasks holds each task's plan term: c is the remaining WCET of
	// its current job (0 after completion), d that job's absolute
	// deadline, u = Cᵢ/Tᵢ. plan is SelectSpeed's scratch, reused
	// across decisions so that a decision allocates nothing.
	tasks []laEntry
	plan  []laEntry
}

// laEntry is one task's term of the deferral plan.
type laEntry struct {
	c, d, u float64
}

// Name implements sim.Policy.
func (*LAEDF) Name() string { return "laEDF" }

// Reset implements sim.Policy.
func (p *LAEDF) Reset(sys sim.System) {
	p.sys = sys
	ts := sys.TaskSet()
	n := ts.N()
	buf := make([]laEntry, 2*n)
	p.tasks, p.plan = buf[:n:n], buf[n:n]
	p.util = ts.Utilization()
	for i, t := range ts.Tasks {
		// Before the first release the "current job" is the one
		// about to arrive at its first release.
		p.tasks[i] = laEntry{c: 0, d: sys.NextReleaseOf(i) + t.RelDeadline(), u: t.Utilization()}
	}
}

// OnRelease implements sim.Policy.
func (p *LAEDF) OnRelease(j *sim.JobState) {
	p.tasks[j.TaskIndex].c = j.WCET
	p.tasks[j.TaskIndex].d = j.AbsDeadline
}

// OnComplete implements sim.Policy. The completed job's deadline is
// retained (with c_left = 0) until the task's next release, exactly
// as in Pillai & Shin's formulation: advancing it early would move
// the task's U subtraction forward in the defer loop and let the
// other tasks over-defer.
func (p *LAEDF) OnComplete(j *sim.JobState) {
	p.tasks[j.TaskIndex].c = 0
}

// OnAdvance implements sim.Policy: execution progress is pulled from
// the active jobs at selection time instead, so nothing to do here.

// SelectSpeed implements sim.Policy.
func (p *LAEDF) SelectSpeed(*sim.JobState) float64 {
	now := p.sys.Now()

	// Refresh remaining work from the live job states: preemptions
	// mean a job may have partially executed since its release hook.
	for _, job := range p.sys.ActiveJobs() {
		p.tasks[job.TaskIndex].c = job.RemainingWCET()
		p.tasks[job.TaskIndex].d = job.AbsDeadline
	}

	entries := p.plan[:0]
	dn := math.Inf(1)
	for _, e := range p.tasks {
		if e.d <= now+sim.Eps {
			// A completed job's stale deadline: its work is done and
			// its window has passed; it contributes nothing and must
			// not shrink dn to the past. Skipping its U subtraction
			// keeps the deferral conservative.
			continue
		}
		entries = append(entries, e)
		if e.d < dn {
			dn = e.d
		}
	}
	if math.IsInf(dn, 1) || !(dn > now) {
		return 1 // nothing to plan around: stay conservative
	}
	// Latest deadline first. The order of tied deadlines reaches the
	// speed through the float sums below; slices.SortFunc gives them
	// pdqsort's fixed order, the one sort.Slice gives too
	// (TestLAEDFSortMatchesSortSlice).
	slices.SortFunc(entries, laLater)

	u := p.util
	var xTotal float64
	for _, e := range entries {
		u -= e.u
		if e.d <= dn+sim.Eps {
			// Work due at the earliest deadline cannot be deferred.
			xTotal += e.c
			continue
		}
		spare := (1 - u) * (e.d - dn)
		x := e.c - spare
		if x < 0 {
			x = 0
		}
		u += (e.c - x) / (e.d - dn)
		xTotal += x
	}
	if xTotal <= 0 {
		return 0 // engine clamps to the processor floor
	}
	return xTotal / (dn - now)
}

// laLater orders plan entries by deadline, latest first: negative
// exactly when a.d > b.d, the less function the plan was defined with.
func laLater(a, b laEntry) int {
	switch {
	case a.d > b.d:
		return -1
	case a.d < b.d:
		return 1
	}
	return 0
}
