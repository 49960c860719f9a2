package dvs

import (
	"math"
	"slices"

	"dvsslack/internal/sim"
)

// DRA is the dynamic reclaiming algorithm of Aydin, Melhem, Mossé and
// Mejía-Alvarez (RTSS 2001). It tracks the *canonical schedule* — the
// static-optimal EDF schedule in which every job runs its full WCET
// at the constant speed S = max(U, s_min) — with an "alpha queue" of
// per-job remaining canonical execution times ordered by deadline:
//
//   - at a job's release, its canonical allowance Cᵢ/S is enqueued;
//
//   - as wall-clock time passes, the allowance of the
//     earliest-deadline queue entry is consumed (that is the job the
//     canonical processor would be running), idling when the queue
//     is empty;
//
//   - when a job J with deadline d is dispatched, every queue entry
//     with deadline strictly earlier than d whose actual job already
//     completed represents *earliness*: time the canonical schedule
//     reserved ahead of J that the actual schedule no longer needs.
//     J may run slowly enough to fill its own remaining canonical
//     allowance plus that earliness:
//
//     s = w / (ownAllowance + earliness),  w = remaining WCET of J.
//
// Consuming earliness only uses processor time the (feasible)
// canonical schedule had already budgeted before d, so no deadline is
// missed (Aydin et al., Theorem 2).
type DRA struct {
	sys    sim.System
	static float64
	// queue is the alpha queue, ascending by deadline with ties in
	// release order. It is a slice of values whose backing array is
	// reused, so releases, consumption and completions allocate
	// nothing once it has grown to the run's peak length.
	queue []alphaEntry
}

type alphaEntry struct {
	deadline float64
	rem      float64       // remaining canonical execution time
	job      *sim.JobState // nil once the actual job completed
}

// Name implements sim.Policy.
func (*DRA) Name() string { return "DRA" }

// Reset implements sim.Policy.
func (p *DRA) Reset(sys sim.System) {
	p.sys = sys
	p.static = math.Max(sys.TaskSet().Utilization(), sys.Processor().SMin)
	// Room for a live and a done (not yet consumed) entry per task,
	// the usual peak.
	p.queue = make([]alphaEntry, 0, 2*sys.TaskSet().N())
}

// OnRelease implements sim.Policy.
func (p *DRA) OnRelease(j *sim.JobState) {
	// Insert ordered by deadline, searching from the back; ties go
	// after equal deadlines (FIFO), matching the engine's
	// deterministic EDF tie-break closely enough for the canonical
	// accounting.
	i := len(p.queue)
	for i > 0 && p.queue[i-1].deadline > j.AbsDeadline {
		i--
	}
	p.queue = slices.Insert(p.queue, i, alphaEntry{deadline: j.AbsDeadline, rem: j.WCET / p.static, job: j})
}

// OnComplete implements sim.Policy. The entry stays queued — its
// canonical time is now earliness — but drops the job pointer, which
// the engine recycles for a later release.
func (p *DRA) OnComplete(j *sim.JobState) {
	if k := p.entryOf(j); k >= 0 {
		p.queue[k].job = nil
	}
}

// entryOf returns the queue index of j's own entry, or -1 once the
// canonical schedule has consumed it.
func (p *DRA) entryOf(j *sim.JobState) int {
	for k := range p.queue {
		if p.queue[k].job == j {
			return k
		}
	}
	return -1
}

// OnAdvance implements sim.Policy: consume canonical execution time
// from the head of the alpha queue (earliest deadline first), exactly
// as the canonical processor would spend it.
func (p *DRA) OnAdvance(dt float64) {
	n := 0
	for dt > 0 && n < len(p.queue) {
		e := &p.queue[n]
		if e.rem > dt {
			e.rem -= dt
			break
		}
		dt -= e.rem
		n++
	}
	if n > 0 {
		p.queue = p.queue[:copy(p.queue, p.queue[n:])]
	}
}

// SelectSpeed implements sim.Policy.
func (p *DRA) SelectSpeed(j *sim.JobState) float64 {
	w := j.RemainingWCET()
	if w <= 0 {
		return p.static
	}
	// Own remaining canonical allowance. Once it is exhausted (the
	// job ran longer than its canonical share) the job must proceed
	// using only earliness.
	var own float64
	k := p.entryOf(j)
	if k >= 0 {
		own = p.queue[k].rem
	}
	// Earliness: canonical time still queued ahead of j's own entry
	// (in canonical EDF order, deadline ties included) whose actual
	// jobs have completed. The queue is maintained in canonical
	// order, so "ahead" is simply queue position.
	var earliness float64
	for i := range p.queue {
		e := &p.queue[i]
		if i == k {
			break
		}
		if k < 0 && e.deadline >= j.AbsDeadline {
			// Own entry already consumed: without it as a position
			// marker, count only strictly earlier deadlines (ties
			// are ambiguous — stay conservative).
			break
		}
		if e.job != nil {
			// An incomplete job canonically ahead of j would be
			// running instead of j under EDF; under the engine's
			// dispatch rules this cannot happen for strictly earlier
			// deadlines, but a deadline tie broken differently could
			// surface here — stop conservatively.
			earliness = 0
			break
		}
		earliness += e.rem
	}
	avail := own + earliness
	if avail <= 0 {
		return 1
	}
	return w / avail
}
