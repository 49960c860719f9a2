package sim

import (
	"testing"

	"dvsslack/internal/cpu"
	"dvsslack/internal/rtm"
	"dvsslack/internal/workload"
)

// TestEngineDecisionSteadyStateAllocs pins the engine's allocation
// profile: a run allocates its setup (the engine, the per-task
// cursors, the ready queue and the free list) plus one JobState per
// concurrently live job, and nothing that grows with the run's
// length. Decisions, event advance, heap maintenance, the release
// index refresh and the job lifecycle itself (completed job states
// are recycled) must not allocate, so a run over eight hyperperiods
// allocates no more than a run over one. A regression of even one
// allocation per release or per decision fails loudly.
func TestEngineDecisionSteadyStateAllocs(t *testing.T) {
	ts := rtm.MustGenerate(rtm.DefaultGenConfig(8, 0.7, 1))
	gen := workload.Uniform{Lo: 0.5, Hi: 1, Seed: 1}
	hyper := DefaultHorizon(ts)
	allocs := func(horizon float64) (float64, Result) {
		cfg := Config{
			TaskSet:   ts,
			Processor: cpu.Continuous(0.1),
			Policy:    fixedSpeed{s: 1},
			Workload:  gen,
			Horizon:   horizon,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		}), res
	}
	one, res1 := allocs(hyper)
	eight, res8 := allocs(8 * hyper)
	if res1.Decisions < 50 || res1.JobsReleased < 50 || res8.JobsReleased < 8*res1.JobsReleased {
		t.Fatalf("trivial runs: %d/%d decisions, %d/%d jobs over one/eight hyperperiods",
			res1.Decisions, res8.Decisions, res1.JobsReleased, res8.JobsReleased)
	}
	t.Logf("%v allocs over one hyperperiod (%d jobs), %v over eight (%d jobs)",
		one, res1.JobsReleased, eight, res8.JobsReleased)
	if eight > one {
		t.Errorf("a run over 8 hyperperiods allocates %v, over one %v (%d vs %d jobs): allocation grows with the run",
			eight, one, res8.JobsReleased, res1.JobsReleased)
	}
}
