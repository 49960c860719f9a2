package dvs

import (
	"math"
	"slices"
	"sort"
	"testing"

	"dvsslack/internal/cpu"
	"dvsslack/internal/prng"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

// allocSystem is a minimal sim.System with fixed answers, so repeated
// decisions take the identical code path.
type allocSystem struct {
	ts   *rtm.TaskSet
	now  float64
	jobs []*sim.JobState
}

func (s *allocSystem) TaskSet() *rtm.TaskSet       { return s.ts }
func (s *allocSystem) Processor() *cpu.Processor   { return cpu.Continuous(0.1) }
func (s *allocSystem) Now() float64                { return s.now }
func (s *allocSystem) ActiveJobs() []*sim.JobState { return s.jobs }
func (s *allocSystem) NextReleaseOf(i int) float64 { return s.ts.Tasks[i].Period }
func (s *allocSystem) NextRelease() float64        { return s.NextDecisionBound() }
func (s *allocSystem) NextDecisionBound() float64 {
	nr := math.Inf(1)
	for _, t := range s.ts.Tasks {
		nr = math.Min(nr, t.Period)
	}
	return nr
}

// TestLAEDFSelectSpeedZeroSteadyStateAllocs pins laEDF's decision to
// zero allocations once Reset has sized its plan buffer, like the
// lpSHE and engine guards in internal/core and internal/sim.
func TestLAEDFSelectSpeedZeroSteadyStateAllocs(t *testing.T) {
	ts := rtm.MustGenerate(rtm.DefaultGenConfig(16, 0.8, 2))
	sys := &allocSystem{ts: ts, now: 1}
	for i := 0; i < 8; i++ {
		sys.jobs = append(sys.jobs, &sim.JobState{Job: ts.JobOf(i, 0)})
	}
	p := &LAEDF{}
	p.Reset(sys)
	j := sys.jobs[0]
	if s := p.SelectSpeed(j); !(s > 0 && s <= 1) {
		t.Fatalf("speed %v: the plan did not run", s)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.SelectSpeed(j) }); allocs != 0 {
		t.Errorf("SelectSpeed allocates %v per call in steady state, want 0", allocs)
	}
}

// TestLAEDFSortMatchesSortSlice: laEDF's plan order is part of its
// output (tied deadlines fold their utilizations in sort order), so
// the slices.SortFunc it uses must permute entries exactly as a
// sort.Slice on the same less function would, ties included.
func TestLAEDFSortMatchesSortSlice(t *testing.T) {
	src := prng.New(7)
	for trial := 0; trial < 500; trial++ {
		n := 1 + src.Intn(48)
		want := make([]laEntry, n)
		for i := range want {
			// Few distinct deadlines: most entries tie with another.
			want[i] = laEntry{c: float64(i), d: float64(src.Intn(1 + n/4)), u: src.Float64()}
		}
		got := slices.Clone(want)
		sort.Slice(want, func(a, b int) bool { return want[a].d > want[b].d })
		slices.SortFunc(got, laLater)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: slices.SortFunc order %v != sort.Slice order %v", n, got, want)
		}
	}
}

// TestDRAZeroSteadyStateAllocs pins DRA's whole job lifecycle —
// release, select, advance, complete — to zero allocations once Reset
// has sized the alpha queue: entries are values in a reused slice,
// not a heap object and a list element per release.
func TestDRAZeroSteadyStateAllocs(t *testing.T) {
	ts := rtm.MustGenerate(rtm.DefaultGenConfig(8, 0.7, 3))
	p := &DRA{}
	p.Reset(&allocSystem{ts: ts})
	jobs := make([]sim.JobState, ts.N()) // recycled every cycle, as the engine does
	// Each canonical allowance Cᵢ/U is at most Tᵢ, so advancing by
	// n·max(T) lets the canonical schedule drain the queue.
	drain := float64(ts.N()) * ts.MaxPeriod()
	k := 0
	cycle := func() {
		for i := range jobs {
			jobs[i] = sim.JobState{Job: ts.JobOf(i, k)}
			p.OnRelease(&jobs[i])
		}
		for i := range jobs {
			j := &jobs[i]
			if s := p.SelectSpeed(j); !(s > 0) {
				t.Fatalf("speed %v", s)
			}
			p.OnAdvance(j.WCET / 2)
			j.Executed = j.WCET / 2
			p.OnComplete(j)
		}
		p.OnAdvance(drain)
		k++
	}
	cycle()
	if len(p.queue) != 0 {
		t.Fatalf("%d entries left after a cycle: not a steady state", len(p.queue))
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a release/select/advance/complete cycle allocates %v, want 0", allocs)
	}
}
