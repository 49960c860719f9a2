package core

import (
	"math"
	"testing"

	"dvsslack/internal/cpu"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

// The tests in this file pin the steady-state allocation behaviour of
// the per-decision hot path: after warm-up, one slack analysis and
// one full lpSHE speed decision must allocate nothing. They are the
// regression guards behind the BenchmarkAnalyzerSlack allocs/op
// figure recorded in BENCH_*.json (see docs/performance.md).

// allocSystem is a minimal sim.System for driving the decision path
// without an engine. All answers are fixed so repeated calls take the
// identical code path.
type allocSystem struct {
	ts   *rtm.TaskSet
	proc *cpu.Processor
	now  float64
	jobs []*sim.JobState
}

func (s *allocSystem) TaskSet() *rtm.TaskSet       { return s.ts }
func (s *allocSystem) Processor() *cpu.Processor   { return s.proc }
func (s *allocSystem) Now() float64                { return s.now }
func (s *allocSystem) ActiveJobs() []*sim.JobState { return s.jobs }
func (s *allocSystem) NextReleaseOf(i int) float64 { return s.ts.Tasks[i].Period }
func (s *allocSystem) NextDecisionBound() float64  { return s.NextRelease() }
func (s *allocSystem) NextRelease() float64 {
	nr := math.Inf(1)
	for _, t := range s.ts.Tasks {
		if t.Period < nr {
			nr = t.Period
		}
	}
	return nr
}

func newAllocSystem(t *testing.T, n int) *allocSystem {
	t.Helper()
	ts, err := rtm.Generate(rtm.DefaultGenConfig(n, 0.8, 2))
	if err != nil {
		t.Fatal(err)
	}
	sys := &allocSystem{ts: ts, proc: cpu.Continuous(0.1), now: 1.0}
	for i := 0; i < n/2; i++ {
		j := ts.JobOf(i, 0)
		sys.jobs = append(sys.jobs, &sim.JobState{Job: j})
	}
	return sys
}

// TestAnalyzeZeroSteadyStateAllocs: after the scratch buffers have
// seen one call, Slack allocates nothing per invocation.
func TestAnalyzeZeroSteadyStateAllocs(t *testing.T) {
	sys := newAllocSystem(t, 16)
	an := NewAnalyzer(sys.ts)
	nextRel := sys.NextReleaseOf
	an.Slack(sys.now, sys.jobs, nextRel) // warm scratch
	allocs := testing.AllocsPerRun(100, func() {
		an.Slack(sys.now, sys.jobs, nextRel)
	})
	if allocs != 0 {
		t.Errorf("Slack allocates %v per call in steady state, want 0", allocs)
	}
}

// TestAnalyzeZeroAllocsWithPhantoms: the no-reclaim ablation's
// phantom demand path is steady-state allocation-free too once the
// phantom buffer reached its per-task capacity.
func TestAnalyzeZeroAllocsWithPhantoms(t *testing.T) {
	sys := newAllocSystem(t, 8)
	an := NewAnalyzer(sys.ts)
	nextRel := sys.NextReleaseOf
	for i, task := range sys.ts.Tasks {
		an.AddPhantom(sys.now+task.Period*float64(i+1), 0.1, false)
	}
	an.Slack(sys.now, sys.jobs, nextRel)
	allocs := testing.AllocsPerRun(100, func() {
		an.Slack(sys.now, sys.jobs, nextRel)
	})
	if allocs != 0 {
		t.Errorf("Slack with phantoms allocates %v per call, want 0", allocs)
	}
}

// TestSelectSpeedZeroSteadyStateAllocs: a full lpSHE scheduling
// decision — slack analysis plus the pacing pass — allocates nothing
// per call after Reset. Rescan (the crosscheck oracle) must hold the
// property too: differential runs lean on it heavily.
func TestSelectSpeedZeroSteadyStateAllocs(t *testing.T) {
	for _, v := range []Variant{Full, Greedy, Rescan} {
		sys := newAllocSystem(t, 12)
		p := NewLpSHEVariant(v)
		p.Reset(sys)
		j := sys.jobs[0]
		p.SelectSpeed(j) // warm analyzer scratch
		allocs := testing.AllocsPerRun(100, func() {
			p.SelectSpeed(j)
		})
		if allocs != 0 {
			t.Errorf("variant %v: SelectSpeed allocates %v per call in steady state, want 0", v, allocs)
		}
	}
}

// TestStaircaseZeroSteadyStateAllocs: the incremental fast path —
// analysis with stair capture on, then credits and bound queries
// between analyses — allocates nothing once the capture buffers and
// the sparse table have grown to the scan depth.
func TestStaircaseZeroSteadyStateAllocs(t *testing.T) {
	sys := newAllocSystem(t, 12)
	an := NewAnalyzer(sys.ts)
	an.SetStairCapture(true)
	nextRel := sys.NextReleaseOf
	an.Slack(sys.now, sys.jobs, nextRel) // warm scratch + staircase
	dl := sys.jobs[0].AbsDeadline
	allocs := testing.AllocsPerRun(100, func() {
		an.Slack(sys.now, sys.jobs, nextRel)
		an.StairCredit(sys.now, dl, 0.01)
		an.StairBound(sys.now)
	})
	if allocs != 0 {
		t.Errorf("staircase cycle allocates %v per round, want 0", allocs)
	}
}
