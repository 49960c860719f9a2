package core

import (
	"math"
	"testing"

	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

// mkActive builds an active-job list from (deadline, remaining WCET)
// pairs.
func mkActive(pairs ...[2]float64) []*sim.JobState {
	var out []*sim.JobState
	for _, p := range pairs {
		out = append(out, &sim.JobState{Job: rtm.Job{AbsDeadline: p[0], WCET: p[1], AET: p[1]}})
	}
	return out
}

// nextRel builds a NextReleaseOf function from a slice indexed by
// task.
func nextRel(times ...float64) func(int) float64 {
	return func(i int) float64 { return times[i] }
}

func TestSlackSingleTaskFresh(t *testing.T) {
	// One task C=2, T=4; at t=0 its first job is active with full
	// remaining work. Deadlines: 4 (h=2), 8 (h=4), 12 (h=6)...
	// slack = 2 everywhere; min = 2.
	ts := rtm.NewTaskSet("x", rtm.Task{WCET: 2, Period: 4})
	a := NewAnalyzer(ts)
	slack := a.Slack(0, mkActive([2]float64{4, 2}), nextRel(4))
	if math.Abs(slack-2) > 1e-9 {
		t.Errorf("slack = %v, want 2", slack)
	}
}

func TestSlackReclaimsEarlyCompletion(t *testing.T) {
	// Two tasks C=2, T=4 each (U=1). At t=0.5 task 0's job has
	// completed (not in the active list); task 1's job is fresh.
	// Deadlines: 4 (h=2, slack 1.5), 8 (h=2+4=6, slack 1.5), ...
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 2, Period: 4},
		rtm.Task{WCET: 2, Period: 4},
	)
	a := NewAnalyzer(ts)
	slack := a.Slack(0.5, mkActive([2]float64{4, 2}), nextRel(4, 4))
	if math.Abs(slack-1.5) > 1e-9 {
		t.Errorf("slack = %v, want 1.5 (reclaimed)", slack)
	}
}

func TestSlackStaticUtilization(t *testing.T) {
	// Single task C=1, T=10 (U=0.1), fresh at t=0: deadline 10 has
	// h=1 → slack 9; later deadlines have even more. Min = 9.
	ts := rtm.NewTaskSet("x", rtm.Task{WCET: 1, Period: 10})
	a := NewAnalyzer(ts)
	slack := a.Slack(0, mkActive([2]float64{10, 1}), nextRel(10))
	if math.Abs(slack-9) > 1e-9 {
		t.Errorf("slack = %v, want 9", slack)
	}
}

func TestSlackLookaheadSeesFutureTightness(t *testing.T) {
	// Current job: deadline 100, rem 1. A heavy task releases at 10
	// with deadline 20 and WCET 9.5: the window (t,20] has
	// slack 20 - 0 - (9.5 + 1 if current counted at d=100? no:
	// current's deadline 100 > 20, so h(20) = 9.5) = 10.5. But
	// d=100: h = 1 + 9.5*(how many jobs due by 100)...
	// Use a clean construction: T2 = (9.5, 10) from release 10:
	// deadlines 20, 30, ..., each adds 9.5 → slack at 30:
	// 30 - 19 = 11 → at 100: 100 - (1 + 9*9.5) = 13.5.
	// The binding constraint is d=20: slack 10.5.
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 1, Period: 100},
		rtm.Task{WCET: 9.5, Period: 10},
	)
	a := NewAnalyzer(ts)
	slack := a.Slack(0, mkActive([2]float64{100, 1}), nextRel(100, 10))
	if math.Abs(slack-10.5) > 1e-9 {
		t.Errorf("slack = %v, want 10.5", slack)
	}
}

func TestSlackZeroAtFullDemand(t *testing.T) {
	// U = 1, everything fresh at t=0: no slack at all.
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 2, Period: 4},
		rtm.Task{WCET: 2, Period: 4},
	)
	a := NewAnalyzer(ts)
	slack := a.Slack(0,
		mkActive([2]float64{4, 2}, [2]float64{4, 2}), nextRel(4, 4))
	if slack != 0 {
		t.Errorf("slack = %v, want 0", slack)
	}
}

func TestSlackNeverNegative(t *testing.T) {
	// Pathological over-committed state (would be a policy bug):
	// the analyzer must still return 0, not negative.
	ts := rtm.NewTaskSet("x", rtm.Task{WCET: 2, Period: 4})
	a := NewAnalyzer(ts)
	slack := a.Slack(3, mkActive([2]float64{4, 2}), nextRel(4))
	if slack != 0 {
		t.Errorf("slack = %v, want clamped 0", slack)
	}
}

func TestSlackEmptySystem(t *testing.T) {
	ts := rtm.NewTaskSet("x", rtm.Task{WCET: 1, Period: 10})
	a := NewAnalyzer(ts)
	// No active jobs; next release at 8, deadline 18: slack
	// min(18 - 2 - 1, ...) = 15 at the first future deadline.
	slack := a.Slack(2, nil, nextRel(8))
	if math.Abs(slack-15) > 1e-9 {
		t.Errorf("slack = %v, want 15", slack)
	}
}

func TestSlackPhantomDemand(t *testing.T) {
	// With a phantom (no-reclaim ablation) the early-completed
	// job's unused allowance still counts as demand.
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 2, Period: 4},
		rtm.Task{WCET: 2, Period: 4},
	)
	a := NewAnalyzer(ts)
	a.AddPhantom(4, 1.5, false) // completed early, 1.5 unused
	slack := a.Slack(0.5, mkActive([2]float64{4, 2}), nextRel(4, 4))
	// h(4) = 2 + 1.5 = 3.5 → slack 0.
	if slack != 0 {
		t.Errorf("slack with phantom = %v, want 0", slack)
	}
	// Phantoms expire at their deadline.
	a.dropExpiredPhantoms(5)
	if len(a.phantoms) != 0 {
		t.Error("expired phantom not dropped")
	}
}

func TestSlackScanBudgetDegradesConservatively(t *testing.T) {
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 1, Period: 4},
		rtm.Task{WCET: 1, Period: 5},
	)
	full := NewAnalyzer(ts)
	capped := NewAnalyzer(ts)
	capped.SetMaxScan(1)
	active := mkActive([2]float64{4, 1}, [2]float64{5, 1})
	fSlack := full.Slack(0, active, nextRel(4, 5))
	cSlack := capped.Slack(0, active, nextRel(4, 5))
	if cSlack > fSlack+1e-12 {
		t.Errorf("capped slack %v exceeds full %v", cSlack, fSlack)
	}
	if capped.Counters()["slack_budget_capped"] == 0 {
		t.Error("cap counter not incremented")
	}
}

func TestSlackUtilizationCutoffMatchesFullScan(t *testing.T) {
	// The early-termination cutoff must not change results: compare
	// against an analyzer forced to scan the whole periodicity
	// window by disabling the cutoff via util == 1? Instead compare
	// two task sets where the cutoff triggers at different points:
	// re-run the same state twice and check determinism plus a
	// hand-computed value.
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 1, Period: 8},
		rtm.Task{WCET: 2, Period: 12},
	)
	a := NewAnalyzer(ts)
	active := mkActive([2]float64{8, 1}, [2]float64{12, 2})
	s1 := a.Slack(0, active, nextRel(8, 12))
	s2 := a.Slack(0, active, nextRel(8, 12))
	if s1 != s2 {
		t.Error("analysis not deterministic")
	}
	// Deadlines: 8 (h=1, slack 7), 12 (h=3, slack 9), 16 (h=4,
	// slack 12), 24 (h=7, slack 17), ... min = 7 at d=8.
	if math.Abs(s1-7) > 1e-9 {
		t.Errorf("slack = %v, want 7", s1)
	}
}

// TestSlackStopsAtUtilizationCutoff pins where an uncertified scan
// stops: at the first deadline past which the utilization bound
// (d−t)(1−U) − R − C_Σ exceeds the slack minimum. On the state of
// TestSlackUtilizationCutoffMatchesFullScan (U = 7/24, R + C_Σ = 6)
// that is d = 24, the fourth deadline: 17 − 6 = 11 > 7.
func TestSlackStopsAtUtilizationCutoff(t *testing.T) {
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 1, Period: 8},
		rtm.Task{WCET: 2, Period: 12},
	)
	a := NewAnalyzer(ts)
	a.SetFullRescan(true)
	active := mkActive([2]float64{8, 1}, [2]float64{12, 2})
	if got := a.Slack(0, active, nextRel(8, 12)); got != 7 {
		t.Errorf("slack = %v, want 7", got)
	}
	if scanned, certified, truncated := a.LastScan(); scanned != 4 || certified || truncated {
		t.Errorf("LastScan = (%d, %v, %v), want (4, false, false)", scanned, certified, truncated)
	}
}

func TestAnalyzerCounters(t *testing.T) {
	ts := rtm.NewTaskSet("x", rtm.Task{WCET: 1, Period: 4})
	a := NewAnalyzer(ts)
	a.Slack(0, mkActive([2]float64{4, 1}), nextRel(4))
	c := a.Counters()
	if c["slack_calls"] != 1 {
		t.Errorf("calls = %v, want 1", c["slack_calls"])
	}
	if c["slack_scanned"] < 1 {
		t.Errorf("scanned = %v, want >= 1", c["slack_scanned"])
	}
	a.ResetCounters()
	if a.Counters()["slack_calls"] != 0 {
		t.Error("ResetCounters did not zero calls")
	}
}

func TestSlackConstrainedDeadlines(t *testing.T) {
	// Constrained deadline D < T: the stream deadlines are
	// release + D.
	ts := rtm.NewTaskSet("x", rtm.Task{WCET: 1, Period: 10, Deadline: 2})
	a := NewAnalyzer(ts)
	// Active job deadline 2, rem 1 at t=0: slack at 2 is 1; future
	// deadlines 12 (h=2, slack 10)... min = 1.
	slack := a.Slack(0, mkActive([2]float64{2, 1}), nextRel(10))
	if math.Abs(slack-1) > 1e-9 {
		t.Errorf("slack = %v, want 1", slack)
	}
}

func TestVariantString(t *testing.T) {
	for v, want := range map[Variant]string{
		Full: "full", Greedy: "greedy", NoReclaim: "no-reclaim",
		Horizon8: "horizon8", Horizon32: "horizon32", Variant(99): "variant(99)",
	} {
		if got := v.String(); got != want {
			t.Errorf("Variant(%d).String() = %q, want %q", int(v), got, want)
		}
	}
}
