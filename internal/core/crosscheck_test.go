package core

import (
	"math"
	"testing"

	"dvsslack/internal/prng"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

// bruteSlack recomputes L(t) by direct enumeration: every deadline in
// the periodicity window is visited and h(t,d) is summed from scratch —
// an independent O(n·D) oracle for the incremental sweep in
// Analyzer.Slack.
func bruteSlack(ts *rtm.TaskSet, t float64, active []*sim.JobState, nextRel func(int) float64) float64 {
	h, okH := ts.Hyperperiod()
	if !okH {
		panic("bruteSlack needs a hyperperiod")
	}
	maxFirst := t
	for i, task := range ts.Tasks {
		if nd := nextRel(i) + task.RelDeadline(); nd > maxFirst {
			maxFirst = nd
		}
	}
	horizon := maxFirst + h

	// Collect every candidate deadline.
	var deadlines []float64
	for _, j := range active {
		deadlines = append(deadlines, j.AbsDeadline)
	}
	for i, task := range ts.Tasks {
		for d := nextRel(i) + task.RelDeadline(); d <= horizon+1e-9; d += task.Period {
			deadlines = append(deadlines, d)
		}
	}

	demand := func(d float64) float64 {
		var sum float64
		for _, j := range active {
			if j.AbsDeadline <= d {
				sum += j.RemainingWCET()
			}
		}
		for i, task := range ts.Tasks {
			for dd := nextRel(i) + task.RelDeadline(); dd <= d+1e-12; dd += task.Period {
				sum += task.WCET
			}
		}
		return sum
	}

	minL := math.Inf(1)
	for _, d := range deadlines {
		if d <= t || d > horizon+1e-9 {
			continue
		}
		if l := d - t - demand(d); l < minL {
			minL = l
		}
	}
	if minL < 0 || math.IsInf(minL, 1) {
		minL = 0
	}
	return minL
}

// addSeeds seeds f with n inputs (uint64, k × uint8) drawn from the
// fixed PRNG stream seeded by stream: plain go test replays the same
// n cases on every run, and a fuzz run mutates from them.
func addSeeds(f *testing.F, n, k int, stream uint64) {
	src := prng.New(stream)
	for i := 0; i < n; i++ {
		args := []any{src.Uint64()}
		for j := 0; j < k; j++ {
			args = append(args, uint8(src.Uint64()))
		}
		f.Add(args...)
	}
}

// FuzzSlackMatchesBruteForce cross-checks the production analyzer
// (incremental sweep, early cutoffs) against the naive oracle on
// random mid-simulation states.
func FuzzSlackMatchesBruteForce(f *testing.F) {
	addSeeds(f, 150, 3, 1)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, uRaw, stateRaw uint8) {
		n := 1 + int(nRaw)%6
		u := 0.2 + 0.8*float64(uRaw)/255
		cfg := rtm.DefaultGenConfig(n, u, seed)
		// Small hyperperiods keep the oracle cheap.
		cfg.Periods = []float64{10, 20, 25, 50, 100}
		ts, err := rtm.Generate(cfg)
		if err != nil {
			t.Fatalf("seed=%d n=%d u=%.3f: %v", seed, n, u, err)
		}
		// Fabricate a plausible mid-simulation state: a random time,
		// a random subset of tasks with an active (partially
		// executed) current job, the rest completed.
		src := prng.New(seed ^ uint64(stateRaw))
		now := src.Range(0, 200)
		var active []*sim.JobState
		nextRel := make([]float64, n)
		for i, task := range ts.Tasks {
			k := math.Floor(now / task.Period)
			rel := k * task.Period
			nextRel[i] = rel + task.Period
			if src.Float64() < 0.6 {
				j := ts.JobOf(i, int(k))
				js := &sim.JobState{Job: j}
				// Partially executed, but never past the deadline
				// feasibility (executed <= elapsed since release).
				maxExec := math.Min(task.WCET, now-rel)
				if maxExec > 0 {
					js.Executed = src.Float64() * maxExec
				}
				active = append(active, js)
			}
		}
		nr := func(i int) float64 { return nextRel[i] }

		// The analyzer may return the clamped-at-zero value or stop
		// scanning early once the minimum cannot improve; both must
		// agree with the oracle to float tolerance.
		got := NewAnalyzer(ts).Slack(now, active, nr)
		if want := bruteSlack(ts, now, active, nr); math.Abs(got-want) > 1e-6 {
			t.Errorf("seed=%d n=%d u=%.3f now=%.3f: slack %v != oracle %v",
				seed, n, u, now, got, want)
		}
	})
}
