package sim

import (
	"container/heap"
	"testing"

	"dvsslack/internal/prng"
	"dvsslack/internal/rtm"
)

// refHeap drives container/heap over its own copy of the jobs, with
// the dispatch order written out independently of jobHeap.less.
type refHeap struct {
	jobs       []*JobState
	byPriority bool
}

func (h *refHeap) Len() int { return len(h.jobs) }

func (h *refHeap) Less(a, b int) bool {
	x, y := h.jobs[a], h.jobs[b]
	kx, ky := x.AbsDeadline, y.AbsDeadline
	if h.byPriority {
		kx, ky = x.Priority, y.Priority
	}
	switch {
	case kx != ky:
		return kx < ky
	case x.Release != y.Release:
		return x.Release < y.Release
	default:
		return x.TaskIndex < y.TaskIndex
	}
}

func (h *refHeap) Swap(a, b int) {
	h.jobs[a], h.jobs[b] = h.jobs[b], h.jobs[a]
	h.jobs[a].heapIndex = a
	h.jobs[b].heapIndex = b
}

func (h *refHeap) Push(x any) {
	j := x.(*JobState)
	j.heapIndex = len(h.jobs)
	h.jobs = append(h.jobs, j)
}

func (h *refHeap) Pop() any {
	n := len(h.jobs) - 1
	j := h.jobs[n]
	h.jobs[n] = nil
	j.heapIndex = -1
	h.jobs = h.jobs[:n]
	return j
}

// TestJobHeapMatchesContainerHeap: ActiveJobs exposes the heap's slice
// order and the policies sum over it, so the typed push/remove must
// lay the jobs out exactly as container/heap did. Random push/remove
// sequences over small key pools (so deadlines, priorities and
// releases tie often and the task-index tie-break decides) must leave
// both heaps with the same slice after every operation.
func TestJobHeapMatchesContainerHeap(t *testing.T) {
	for _, byPriority := range []bool{false, true} {
		src := prng.New(11)
		for trial := 0; trial < 400; trial++ {
			got := jobHeap{byPriority: byPriority}
			want := refHeap{byPriority: byPriority}
			label := 0
			ops := 1 + src.Intn(80)
			for op := 0; op < ops; op++ {
				if len(got.jobs) == 0 || src.Float64() < 0.55 {
					job := rtm.Job{
						TaskIndex:   src.Intn(4),
						Index:       label, // unique: identifies the job across both heaps
						Release:     float64(src.Intn(3)),
						AbsDeadline: float64(src.Intn(4)),
					}
					prio := float64(src.Intn(3))
					label++
					got.push(&JobState{Job: job, Priority: prio, heapIndex: -1})
					heap.Push(&want, &JobState{Job: job, Priority: prio, heapIndex: -1})
				} else {
					i := src.Intn(len(got.jobs))
					gone := got.jobs[i]
					got.remove(i)
					heap.Remove(&want, i)
					if gone.heapIndex != -1 {
						t.Fatalf("removed job keeps heapIndex %d", gone.heapIndex)
					}
				}
				if len(got.jobs) != len(want.jobs) {
					t.Fatalf("byPriority=%v trial %d op %d: %d jobs, container/heap has %d",
						byPriority, trial, op, len(got.jobs), len(want.jobs))
				}
				for k, j := range got.jobs {
					if j.Index != want.jobs[k].Index || j.heapIndex != k {
						t.Fatalf("byPriority=%v trial %d op %d: slot %d holds job %d (heapIndex %d), container/heap has job %d",
							byPriority, trial, op, k, j.Index, j.heapIndex, want.jobs[k].Index)
					}
				}
			}
		}
	}
}
