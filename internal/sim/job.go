// Package sim implements the discrete-event simulator for
// EDF-scheduled periodic tasks on a variable-voltage processor.
//
// The engine models job releases, preemptive earliest-deadline-first
// dispatching, per-dispatch speed selection by a pluggable DVS
// policy, actual-execution-time early completion, idle intervals, and
// optional speed-transition overhead (stall time and transition
// energy). Energy is integrated from the processor's power model.
//
// Time is continuous (float64). Between two consecutive events
// (release, completion, or transition stall) the processor state is
// constant, so integration is exact. All comparisons use a small
// absolute tolerance (Eps) to absorb floating-point drift.
package sim

import (
	"math"

	"dvsslack/internal/rtm"
)

// Eps is the absolute time tolerance used for event ordering and
// deadline checks. Task parameters in this library are O(1)-O(1000)
// time units, and simulations run for at most millions of events, so
// accumulated float64 drift stays far below this value.
const Eps = 1e-6

// JobState is a released job plus its execution progress. Policies
// receive *JobState at hook and dispatch points; they must treat the
// embedded Job as read-only and may not mutate Executed or Speed
// (those belong to the engine).
//
// Lifetime: a *JobState is valid from its release until its
// completion hooks (Policy.OnComplete, then Observer.ObserveComplete)
// return. The engine then recycles the struct for a later release,
// so any holder of the pointer — a cached current job, a map key, an
// == comparison — must drop it in its completion hook and copy
// whatever fields it keeps.
type JobState struct {
	rtm.Job

	// Executed is the work completed so far, in full-speed units
	// (cycles normalized like WCET). The job completes when
	// Executed reaches AET.
	Executed float64

	// Speed is the most recently assigned execution speed.
	Speed float64

	// Started reports whether the job has ever run.
	Started bool

	// Finish is the completion time, valid once Done.
	Finish float64

	// Done reports whether the job has completed.
	Done bool

	// Priority is the dispatch key under fixed-priority scheduling
	// (lower value = more urgent); unused under EDF.
	Priority float64

	heapIndex int
}

// RemainingWCET returns the worst-case work still outstanding, the
// quantity every deadline-safe policy budgets for (the scheduler
// never knows the actual execution time in advance).
func (j *JobState) RemainingWCET() float64 {
	r := j.WCET - j.Executed
	if r < 0 {
		return 0
	}
	return r
}

// remainingActual returns the work that will actually be performed
// before the job completes. Engine-internal: policies must not
// observe AET-derived quantities before completion.
func (j *JobState) remainingActual() float64 {
	r := j.AET - j.Executed
	if r < 0 {
		return 0
	}
	return r
}

// Laxity returns AbsDeadline - now - RemainingWCET: the wall-clock
// slack the job itself has at full speed.
func (j *JobState) Laxity(now float64) float64 {
	return j.AbsDeadline - now - j.RemainingWCET()
}

// jobHeap orders active jobs by dispatch urgency. Under EDF (the
// default, and the paper's model) the key is the absolute deadline;
// under fixed-priority scheduling it is the job's Priority value.
// Ties break by release time then task index so schedules are
// deterministic.
//
// push and remove are container/heap's Push and Remove specialized to
// *JobState, with the same sift steps: the slice order is what
// ActiveJobs exposes and what the policies' float sums follow, so any
// other layout could move a reading in its last bit.
type jobHeap struct {
	jobs       []*JobState
	byPriority bool
}

func (h *jobHeap) less(a, b int) bool {
	x, y := h.jobs[a], h.jobs[b]
	if h.byPriority {
		if x.Priority != y.Priority {
			return x.Priority < y.Priority
		}
	} else if x.AbsDeadline != y.AbsDeadline {
		return x.AbsDeadline < y.AbsDeadline
	}
	if x.Release != y.Release {
		return x.Release < y.Release
	}
	return x.TaskIndex < y.TaskIndex
}

func (h *jobHeap) swap(a, b int) {
	h.jobs[a], h.jobs[b] = h.jobs[b], h.jobs[a]
	h.jobs[a].heapIndex = a
	h.jobs[b].heapIndex = b
}

func (h *jobHeap) push(j *JobState) {
	j.heapIndex = len(h.jobs)
	h.jobs = append(h.jobs, j)
	h.up(j.heapIndex)
}

func (h *jobHeap) remove(i int) {
	n := len(h.jobs) - 1
	if n != i {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	h.jobs[n].heapIndex = -1
	h.jobs[n] = nil
	h.jobs = h.jobs[:n]
}

func (h *jobHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *jobHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

// infinity is a convenience alias for +Inf release sentinels.
var infinity = math.Inf(1)
