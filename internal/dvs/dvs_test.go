package dvs

import (
	"math"
	"testing"
	"testing/quick"

	"dvsslack/internal/cpu"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
	"dvsslack/internal/workload"
)

// allPolicies returns a fresh instance of every baseline.
func allPolicies() []sim.Policy {
	return []sim.Policy{
		&NonDVS{}, &StaticEDF{}, &LppsEDF{}, &CCEDF{}, &LAEDF{}, &DRA{},
	}
}

func run(t *testing.T, ts *rtm.TaskSet, p sim.Policy, gen workload.Generator) sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		TaskSet:         ts,
		Processor:       cpu.Continuous(0.1),
		Policy:          p,
		Workload:        gen,
		StrictDeadlines: true,
	})
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return res
}

func TestPolicyNames(t *testing.T) {
	want := []string{"nonDVS", "staticEDF", "lppsEDF", "ccEDF", "laEDF", "DRA"}
	for i, p := range allPolicies() {
		if p.Name() != want[i] {
			t.Errorf("policy %d name = %q, want %q", i, p.Name(), want[i])
		}
	}
}

func TestNonDVSAlwaysFullSpeed(t *testing.T) {
	ts := rtm.Quickstart()
	res := run(t, ts, &NonDVS{}, workload.Uniform{Lo: 0.3, Hi: 1, Seed: 1})
	if math.Abs(res.AvgSpeed()-1) > 1e-9 {
		t.Errorf("avg speed = %v, want 1", res.AvgSpeed())
	}
	if res.SpeedSwitches != 0 {
		t.Errorf("switches = %d, want 0", res.SpeedSwitches)
	}
}

func TestStaticEDFRunsAtUtilization(t *testing.T) {
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 1, Period: 4},  // U=0.25
		rtm.Task{WCET: 3, Period: 12}, // U=0.25
	)
	res := run(t, ts, &StaticEDF{}, workload.WorstCase{})
	if math.Abs(res.AvgSpeed()-0.5) > 1e-9 {
		t.Errorf("avg speed = %v, want U = 0.5", res.AvgSpeed())
	}
	if res.IdleTime > sim.Eps {
		t.Errorf("idle = %v; static speed U with worst case should leave none", res.IdleTime)
	}
}

func TestLppsEDFStretchesLoneJob(t *testing.T) {
	// Single task C=2, T=8: every job is alone; lppsEDF stretches
	// to min(deadline, next release) = 8 → speed 0.25.
	ts := rtm.NewTaskSet("x", rtm.Task{WCET: 2, Period: 8})
	res := run(t, ts, &LppsEDF{}, workload.WorstCase{})
	if math.Abs(res.AvgSpeed()-0.25) > 1e-6 {
		t.Errorf("avg speed = %v, want 0.25", res.AvgSpeed())
	}
}

func TestLppsEDFFullSpeedWhenQueued(t *testing.T) {
	// Two tasks always released together with U = 1: the queue
	// never has exactly one job when dispatching the first, so the
	// first job of each pair runs at 1; the second is alone and may
	// stretch to the boundary.
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 2, Period: 4},
		rtm.Task{WCET: 2, Period: 4},
	)
	res := run(t, ts, &LppsEDF{}, workload.WorstCase{})
	if res.DeadlineMisses != 0 {
		t.Fatal("missed deadlines")
	}
	// First job full speed (2 time units), second stretched across
	// the remaining 2 units at speed 1 (no slack at U=1): avg 1.
	if math.Abs(res.AvgSpeed()-1) > 1e-6 {
		t.Errorf("avg speed = %v, want 1 at U=1", res.AvgSpeed())
	}
}

func TestCCEDFReducesAfterEarlyCompletion(t *testing.T) {
	// One task C=4, T=8 with AET=0.25*WCET: at release U_1 = 0.5,
	// after completion U_1 = 0.125 — but with a single task the
	// next dispatch is the next release, which restores 0.5. So use
	// two tasks to observe the cross-task effect.
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 4, Period: 8},
		rtm.Task{WCET: 4, Period: 8},
	)
	res := run(t, ts, &CCEDF{}, workload.Constant{Frac: 0.25})
	if res.DeadlineMisses != 0 {
		t.Fatal("missed deadlines")
	}
	// First job runs at U=1; once it completes (having used 1 of
	// its 4), utilization drops to 0.125+0.5; the second job runs
	// slower. Average speed must be well below 1.
	if res.AvgSpeed() > 0.9 {
		t.Errorf("avg speed = %v, want < 0.9 after reclamation", res.AvgSpeed())
	}
}

func TestLAEDFDefersWork(t *testing.T) {
	// laEDF on a lightly loaded set should run below the static
	// speed early (deferring), never missing deadlines.
	ts := rtm.Quickstart() // U = 0.75
	res := run(t, ts, &LAEDF{}, workload.Uniform{Lo: 0.3, Hi: 1, Seed: 3})
	if res.DeadlineMisses != 0 {
		t.Fatal("missed deadlines")
	}
	if res.AvgSpeed() >= 1 {
		t.Errorf("avg speed = %v, want < 1", res.AvgSpeed())
	}
}

func TestDRAReclaimsEarliness(t *testing.T) {
	// Two tasks, U = 1, first job finishes at 25% of its WCET: DRA
	// must pass the earliness to the second job, dropping average
	// speed below 1.
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 2, Period: 4},
		rtm.Task{WCET: 2, Period: 4},
	)
	res := run(t, ts, &DRA{}, workload.Constant{Frac: 0.25})
	if res.DeadlineMisses != 0 {
		t.Fatal("missed deadlines")
	}
	if res.AvgSpeed() > 0.95 {
		t.Errorf("avg speed = %v, want below 1 via reclaiming", res.AvgSpeed())
	}
}

// TestDRADoneEntryDropsJob: a completed job's alpha-queue entry stays
// queued as earliness, but the engine recycles its *JobState for a
// later release. Unless OnComplete drops the entry's job pointer, the
// next job released through that struct finds the stale entry as its
// own and loses the earliness queued ahead of it.
func TestDRADoneEntryDropsJob(t *testing.T) {
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 1, Period: 4},
		rtm.Task{WCET: 1, Period: 8},
	)
	speed := func(recycle bool) float64 {
		p := &DRA{}
		p.Reset(&allocSystem{ts: ts})
		a := &sim.JobState{Job: ts.JobOf(0, 0)}
		b := &sim.JobState{Job: ts.JobOf(1, 0)}
		p.OnRelease(a)
		p.OnRelease(b)
		// Both complete having run nothing: their whole canonical
		// allowances become earliness.
		p.OnComplete(a)
		p.OnComplete(b)
		c := &sim.JobState{}
		if recycle {
			c = a
		}
		*c = sim.JobState{Job: ts.JobOf(0, 1)} // deadline 8, queued after b
		p.OnRelease(c)
		return p.SelectSpeed(c)
	}
	// c's own allowance plus a's and b's earliness, each C/U = 1/0.375.
	want := 1 / (3 / 0.375)
	if fresh := speed(false); math.Abs(fresh-want) > 1e-12 {
		t.Fatalf("speed %v, want %v", fresh, want)
	}
	if got := speed(true); math.Abs(got-want) > 1e-12 {
		t.Errorf("through a recycled struct: speed %v, want %v (a done entry kept its job pointer)", got, want)
	}
}

func TestDRAWorstCaseEqualsStatic(t *testing.T) {
	// With worst-case workloads there is no earliness: DRA degrades
	// exactly to the canonical static speed.
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 1, Period: 4},
		rtm.Task{WCET: 1, Period: 8},
	)
	resDRA := run(t, ts, &DRA{}, workload.WorstCase{})
	resStatic := run(t, ts, &StaticEDF{}, workload.WorstCase{})
	if math.Abs(resDRA.Energy-resStatic.Energy) > 1e-6 {
		t.Errorf("DRA %v != static %v under worst case", resDRA.Energy, resStatic.Energy)
	}
}

// TestBaselinesNeverMissFuzz fuzzes every baseline policy across
// random feasible task sets, workloads, and processors.
func TestBaselinesNeverMissFuzz(t *testing.T) {
	procs := []*cpu.Processor{
		cpu.Continuous(0.1),
		cpu.UniformLevels(4),
		cpu.Crusoe(),
	}
	f := func(seed uint64, nRaw, uRaw, wRaw, pRaw uint8) bool {
		n := 1 + int(nRaw)%8
		u := 0.15 + 0.85*float64(uRaw)/255
		ts, err := rtm.Generate(rtm.DefaultGenConfig(n, u, seed))
		if err != nil {
			return false
		}
		var gen workload.Generator
		switch wRaw % 3 {
		case 0:
			gen = workload.Uniform{Lo: 0.05, Hi: 1, Seed: seed}
		case 1:
			gen = workload.Bimodal{LightFrac: 0.15, HeavyFrac: 1, PHeavy: 0.25, Seed: seed}
		default:
			gen = workload.WorstCase{}
		}
		proc := procs[int(pRaw)%len(procs)]
		for _, p := range allPolicies() {
			res, err := sim.Run(sim.Config{
				TaskSet:         ts,
				Processor:       proc,
				Policy:          p,
				Workload:        gen,
				StrictDeadlines: true,
			})
			if err != nil || res.DeadlineMisses != 0 {
				t.Logf("policy=%s seed=%d n=%d u=%v gen=%s proc=%s err=%v misses=%d",
					p.Name(), seed, n, u, gen.Name(), proc.Name(), err, res.DeadlineMisses)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDVSNeverWorseThanNonDVS: every DVS policy must consume at most
// the non-DVS energy on the identical workload (zero switch overhead).
func TestDVSNeverWorseThanNonDVS(t *testing.T) {
	f := func(seed uint64, uRaw uint8) bool {
		u := 0.2 + 0.8*float64(uRaw)/255
		ts, err := rtm.Generate(rtm.DefaultGenConfig(6, u, seed))
		if err != nil {
			return false
		}
		gen := workload.Uniform{Lo: 0.3, Hi: 1, Seed: seed}
		ref, err := sim.Run(sim.Config{
			TaskSet: ts, Processor: cpu.Continuous(0.1), Policy: &NonDVS{}, Workload: gen,
		})
		if err != nil {
			return false
		}
		for _, p := range allPolicies()[1:] {
			res, err := sim.Run(sim.Config{
				TaskSet: ts, Processor: cpu.Continuous(0.1), Policy: p, Workload: gen,
			})
			if err != nil || res.Energy > ref.Energy*1.0001 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBoundIsLowerBound(t *testing.T) {
	// The clairvoyant static bound must not exceed any real
	// policy's energy on the same workload.
	f := func(seed uint64, uRaw uint8) bool {
		u := 0.2 + 0.8*float64(uRaw)/255
		ts, err := rtm.Generate(rtm.DefaultGenConfig(5, u, seed))
		if err != nil {
			return false
		}
		gen := workload.Uniform{Lo: 0.4, Hi: 1, Seed: seed}
		horizon := sim.DefaultHorizon(ts)
		bound := Bound(ts, cpu.Continuous(0.1), gen, horizon)
		for _, p := range allPolicies() {
			res, err := sim.Run(sim.Config{
				TaskSet: ts, Processor: cpu.Continuous(0.1), Policy: p,
				Workload: gen, Horizon: horizon,
			})
			if err != nil {
				return false
			}
			if bound > res.Energy*1.0001 {
				t.Logf("bound %v above %s energy %v (seed %d)", bound, p.Name(), res.Energy, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBoundDegenerate(t *testing.T) {
	ts := rtm.NewTaskSet("x", rtm.Task{WCET: 1, Period: 10})
	proc := cpu.Continuous(0.1)
	if b := Bound(ts, proc, nil, 0); b != 0 {
		t.Errorf("zero horizon bound = %v, want 0", b)
	}
	// Nil generator means worst case.
	b := Bound(ts, proc, nil, 10)
	// One job of work 1 over 10 time units: s = max(0.1, 0.1) = 0.1,
	// busy 10, energy = 0.001*10 = 0.01.
	if math.Abs(b-0.01) > 1e-9 {
		t.Errorf("bound = %v, want 0.01", b)
	}
}
