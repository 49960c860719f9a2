package core

import (
	"math"
	"slices"
	"testing"

	"dvsslack/internal/prng"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

// linearTwin returns an analyzer for ts identical to NewAnalyzer(ts) —
// same grid, same certificate, same staircase — except that its grid
// carries no deadline calendar, so every call takes the linear merge
// over the release streams.
func linearTwin(ts *rtm.TaskSet) *Analyzer {
	a := NewAnalyzer(ts)
	if a.grid != nil {
		g := *a.grid
		g.calPos, g.calTask = nil, nil
		a.grid = &g
	}
	return a
}

// calendarPools are small integer period pools: short hyperperiods make
// scans wrap past a window, and drawing with replacement gives equal
// periods.
var calendarPools = [][]float64{
	{2, 3, 4, 6},
	{4, 8, 16},
	{5, 10, 15, 30},
	{10, 20, 25, 50, 100},
	{3, 7, 12},
}

// calendarCase draws an integer-period task set — constrained integer
// deadlines on about half the tasks, utilization in [0.3, 1) or, one
// case in six, exactly 1 — and a mid-run state on its nominal release
// grid: partially executed current jobs, and streams skipped ahead by
// an activity window (no current job, next release several periods
// out).
func calendarCase(seed uint64) (ts *rtm.TaskSet, now float64, active []*sim.JobState, rel []float64) {
	src := prng.New(seed)
	pool := calendarPools[src.Intn(len(calendarPools))]
	var tasks []rtm.Task
	if src.Intn(6) == 0 {
		// Utilization exactly 1 in integers: task pairs with C = T/2.
		for i := 0; i < 2; i++ {
			p := pool[src.Intn(len(pool))] * 2
			tasks = append(tasks, rtm.Task{WCET: p / 2, Period: p})
		}
	} else {
		n := 1 + src.Intn(8)
		u := src.Range(0.3, 1)
		w := make([]float64, n)
		var sum float64
		for i := range w {
			w[i] = src.Range(0.1, 1)
			sum += w[i]
		}
		for i := 0; i < n; i++ {
			p := pool[src.Intn(len(pool))]
			task := rtm.Task{WCET: u * w[i] / sum * p, Period: p}
			if src.Intn(2) == 0 {
				// Constrained deadline in [⌈C⌉, T].
				lo := math.Ceil(task.WCET)
				task.Deadline = lo + float64(src.Intn(int(p-lo)+1))
			}
			tasks = append(tasks, task)
		}
	}
	ts = rtm.NewTaskSet("cal", tasks...)
	h, _ := ts.Hyperperiod()
	now = math.Floor(src.Range(0, 4*h)) + []float64{0, 0.25, 0.5}[src.Intn(3)]
	rel = make([]float64, len(ts.Tasks))
	for i, task := range ts.Tasks {
		k := math.Floor(now / task.Period)
		rel[i] = (k + 1) * task.Period
		switch {
		case src.Intn(5) == 0:
			// Activity-window skip: the stream resumes later.
			rel[i] += float64(1+src.Intn(4)) * task.Period
		case src.Float64() < 0.6:
			js := &sim.JobState{Job: ts.JobOf(i, int(k))}
			if maxExec := math.Min(task.WCET, now-k*task.Period); maxExec > 0 {
				js.Executed = src.Float64() * maxExec
			}
			active = append(active, js)
		}
	}
	return ts, now, active, rel
}

// TestCalendarMatchesLinearMerge pins the deadline-calendar walk to the
// linear stream merge it replaces: on random integer-period task sets
// both walks must return ==-identical Analyze and Slack readings, the
// same LastScan provenance and the same staircase capture, and the
// calendar must actually be taken.
func TestCalendarMatchesLinearMerge(t *testing.T) {
	wrapped, uFull := 0, 0
	const cases = 600
	for seed := uint64(1); seed <= cases; seed++ {
		ts, now, active, rel := calendarCase(seed)
		nextRel := func(i int) float64 { return rel[i] }
		cal, lin := NewAnalyzer(ts), linearTwin(ts)
		if cal.grid == nil || cal.grid.calPos == nil {
			t.Fatalf("seed %d: no calendar for integer task set %v", seed, ts.Tasks)
		}
		if cal.grid.hyper == cal.grid.total {
			uFull++
		}
		if seed%3 == 0 {
			for _, a := range []*Analyzer{cal, lin} {
				a.AddPhantom(now+3.5, 0.25)
				a.AddPhantom(now+float64(seed%17), 0.5)
			}
		}
		cal.SetStairCapture(true)
		lin.SetStairCapture(true)
		compare := func(what string, got, want [2]float64) {
			t.Helper()
			if got != want {
				t.Fatalf("seed %d %s: calendar %v != linear %v", seed, what, got, want)
			}
			if !cal.lastCal || lin.lastCal {
				t.Fatalf("seed %d %s: calendar path %v / %v, want true / false", seed, what, cal.lastCal, lin.lastCal)
			}
			gs, gc, gt := cal.LastScan()
			ws, wc, wt := lin.LastScan()
			if gs != ws || gc != wc || gt != wt {
				t.Fatalf("seed %d %s: LastScan calendar (%d,%v,%v) != linear (%d,%v,%v)", seed, what, gs, gc, gt, ws, wc, wt)
			}
			if !slices.Equal(cal.stairD, lin.stairD) || !slices.Equal(cal.stairC, lin.stairC) {
				t.Fatalf("seed %d %s: staircase capture differs", seed, what)
			}
			for _, dt := range []float64{0, 0.5, 3, 11} {
				if g, w := cal.StairBound(now+dt), lin.StairBound(now+dt); g != w {
					t.Fatalf("seed %d %s: StairBound(now+%v) calendar %v != linear %v", seed, what, dt, g, w)
				}
			}
		}
		gl, gs := cal.Analyze(now, active, nextRel)
		wl, ws := lin.Analyze(now, active, nextRel)
		compare("Analyze", [2]float64{gl, gs}, [2]float64{wl, ws})
		if len(cal.stairD) > 0 && cal.stairLast-cal.stairD[0] >= cal.grid.hyper {
			wrapped++
		}
		compare("Slack", [2]float64{cal.Slack(now, active, nextRel)}, [2]float64{lin.Slack(now, active, nextRel)})
	}
	t.Logf("%d of %d scans wrapped past a hyperperiod; %d sets at utilization 1", wrapped, cases, uFull)
	if wrapped < cases/10 || uFull == 0 {
		t.Errorf("weak coverage: %d of %d scans wrapped past a hyperperiod, %d sets at utilization 1", wrapped, cases, uFull)
	}
}

// TestCalendarStandsDown: the calendar is taken only when the streams
// line up with it exactly. A non-integer period builds no calendar; a
// jitter-pending stream (next release "right now", off its grid) or a
// release a hair off k·Period, the full-rescan oracle and a capped scan
// budget all take the linear merge — with readings equal to the linear
// twin's.
func TestCalendarStandsDown(t *testing.T) {
	frac := rtm.NewTaskSet("frac", rtm.Task{WCET: 0.5, Period: 2.5}, rtm.Task{WCET: 1, Period: 4})
	a := NewAnalyzer(frac)
	if a.grid == nil || a.grid.calPos != nil {
		t.Fatal("non-integer periods: want a grid without a calendar")
	}
	a.Analyze(1, nil, func(i int) float64 { return frac.Tasks[i].Period })
	if a.lastCal {
		t.Error("non-integer periods took the calendar")
	}

	ts := rtm.NewTaskSet("int",
		rtm.Task{WCET: 1, Period: 5}, rtm.Task{WCET: 2, Period: 10, Deadline: 8}, rtm.Task{WCET: 3, Period: 20})
	nominal := func(i int) float64 { return math.Ceil(7.3/ts.Tasks[i].Period) * ts.Tasks[i].Period }
	cases := []struct {
		name    string
		now     float64
		nextRel func(int) float64
		setup   func(*Analyzer)
	}{
		{"jitter pending", 7.3, func(i int) float64 {
			if i == 0 {
				return 7.3 // nominal release 5 passed, arrival still pending
			}
			return nominal(i)
		}, nil},
		{"off k·Period by an ulp-scale hair", 7.3, func(i int) float64 {
			if i == 1 {
				return 20 + 1e-12
			}
			return nominal(i)
		}, nil},
		{"full-rescan oracle", 7.3, nominal, func(a *Analyzer) { a.SetFullRescan(true) }},
		{"capped scan budget", 7.3, nominal, func(a *Analyzer) { a.SetMaxScan(8) }},
	}
	for _, c := range cases {
		cal, lin := NewAnalyzer(ts), linearTwin(ts)
		if c.setup != nil {
			c.setup(cal)
			c.setup(lin)
		}
		gl, gs := cal.Analyze(c.now, nil, c.nextRel)
		wl, ws := lin.Analyze(c.now, nil, c.nextRel)
		if cal.lastCal {
			t.Errorf("%s: took the calendar", c.name)
		}
		if gl != wl || gs != ws {
			t.Errorf("%s: readings (%v, %v) != linear (%v, %v)", c.name, gl, gs, wl, ws)
		}
	}
	// Control: the same set on its nominal grid does take the calendar.
	cal := NewAnalyzer(ts)
	cal.Analyze(7.3, nil, nominal)
	if !cal.lastCal {
		t.Error("on-grid streams did not take the calendar")
	}
}
