package core

import (
	"testing"

	"dvsslack/internal/cpu"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
	"dvsslack/internal/workload"
)

// withJitter copies a task set, giving every task release jitter of
// frac times its period.
func withJitter(ts *rtm.TaskSet, frac float64) *rtm.TaskSet {
	out := rtm.NewTaskSet(ts.Name, ts.Tasks...)
	for i := range out.Tasks {
		out.Tasks[i].Jitter = frac * out.Tasks[i].Period
	}
	return out
}

// FuzzLpSHEJitter: the slack analysis assumes only earliest-possible
// future releases and the event floor uses the guaranteed decision
// bound, so the hard guarantee must survive release jitter — the
// "dynamic workload" arrival noise — on every trace where it can hold
// at all. Jitter can bunch two jobs of one task closer than a period,
// so a jittered trace can be infeasible even at U < 1: EDF at full
// speed, which meets every deadline of any feasible job set, misses
// there too, and no speed choice can do better (the committed corpus
// entries in testdata/fuzz/FuzzLpSHEJitter are such traces). The
// claim is therefore checked against full speed on the same trace:
// where full speed misses nothing, lpSHE must miss nothing either.
func FuzzLpSHEJitter(f *testing.F) {
	addSeeds(f, 80, 3, 5)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, uRaw, jRaw uint8) {
		n := 1 + int(nRaw)%8
		u := 0.15 + 0.8*float64(uRaw)/255
		base, err := rtm.Generate(rtm.DefaultGenConfig(n, u, seed))
		if err != nil {
			t.Fatalf("seed=%d n=%d u=%v: %v", seed, n, u, err)
		}
		ts := withJitter(base, float64(jRaw%10)/10)
		run := func(p sim.Policy, strict bool) (sim.Result, error) {
			return sim.Run(sim.Config{
				TaskSet:         ts,
				Processor:       cpu.Continuous(0.1),
				Policy:          p,
				Workload:        workload.Uniform{Lo: 0.2, Hi: 1, Seed: seed},
				JitterSeed:      seed ^ 0xabc,
				StrictDeadlines: strict,
			})
		}
		ref, err := run(nonDVSPolicy{}, false)
		if err != nil {
			t.Fatalf("seed=%d: full-speed reference: %v", seed, err)
		}
		if ref.DeadlineMisses > 0 {
			t.Skipf("seed=%d n=%d u=%v jitter=%d0%%: infeasible, full speed misses %d deadlines",
				seed, n, u, jRaw%10, ref.DeadlineMisses)
		}
		for _, v := range []Variant{Full, Greedy} {
			res, err := run(NewLpSHEVariant(v), true)
			if err != nil || res.DeadlineMisses != 0 {
				t.Errorf("variant %v seed=%d n=%d u=%v jitter=%d0%%: err=%v misses=%d",
					v, seed, n, u, jRaw%10, err, res.DeadlineMisses)
			}
		}
	})
}

// TestJitterBreaksUtilizationPacing documents why the event floor
// must use the decision bound: a policy that slows to the worst-case
// utilization (staticEDF-style pacing, which is optimal for strictly
// periodic releases) CAN miss deadlines once releases bunch up under
// jitter, while lpSHE on the identical trace does not.
func TestJitterBreaksUtilizationPacing(t *testing.T) {
	ts := rtm.NewTaskSet("bunch",
		rtm.Task{Name: "a", WCET: 1, Period: 4, Jitter: 3.5},
		rtm.Task{Name: "b", WCET: 2.6, Period: 4},
	)
	var staticMissed bool
	for seed := uint64(0); seed < 40 && !staticMissed; seed++ {
		res, err := sim.Run(sim.Config{
			TaskSet:    ts,
			Processor:  cpu.Continuous(0.05),
			Policy:     &fixedSpeedPolicy{s: ts.Utilization()},
			Workload:   workload.WorstCase{},
			Horizon:    200,
			JitterSeed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.DeadlineMisses > 0 {
			staticMissed = true
			// The same trace under lpSHE must stay clean.
			lp, err := sim.Run(sim.Config{
				TaskSet:         ts,
				Processor:       cpu.Continuous(0.05),
				Policy:          NewLpSHE(),
				Workload:        workload.WorstCase{},
				Horizon:         200,
				JitterSeed:      seed,
				StrictDeadlines: true,
			})
			if err != nil {
				t.Fatalf("lpSHE on the same jittered trace: %v", err)
			}
			if lp.DeadlineMisses != 0 {
				t.Fatalf("lpSHE missed %d deadlines", lp.DeadlineMisses)
			}
		}
	}
	if !staticMissed {
		t.Skip("no jitter seed produced a utilization-pacing miss on this set (expected occasionally)")
	}
}

// fixedSpeedPolicy runs at one constant speed (test aid).
type fixedSpeedPolicy struct {
	sim.NopHooks
	s float64
}

func (p *fixedSpeedPolicy) Name() string                      { return "fixed" }
func (p *fixedSpeedPolicy) Reset(sim.System)                  {}
func (p *fixedSpeedPolicy) SelectSpeed(*sim.JobState) float64 { return p.s }
