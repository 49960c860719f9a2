package scenario

import (
	"math"
	"sort"

	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
	"dvsslack/internal/workload"
)

// farFuture closes the last open activity window. It is finite (the
// engine requires finite window ends) but beyond any horizon.
const farFuture = 1e18

// activeWindows compiles the timeline's arrive/depart events into
// per-task sim activity windows. It returns nil when the timeline has
// none, so scenarios without mode changes run through the engine
// exactly as an unwindowed config.
func (doc *Document) activeWindows(ts *rtm.TaskSet) [][]sim.Window {
	type move struct {
		at     float64
		arrive bool
	}
	moves := map[string][]move{}
	for _, ev := range doc.Timeline {
		switch ev.Event {
		case "arrive", "depart":
			moves[ev.Task] = append(moves[ev.Task], move{at: ev.At, arrive: ev.Event == "arrive"})
		}
	}
	if len(moves) == 0 {
		return nil
	}
	ws := make([][]sim.Window, len(ts.Tasks))
	for i, t := range ts.Tasks {
		ms, ok := moves[t.Name]
		if !ok {
			continue // always active
		}
		sort.SliceStable(ms, func(a, b int) bool { return ms[a].at < ms[b].at })
		// The task starts active unless its first event is an
		// arrival (validation guarantees alternation after that).
		var out []sim.Window
		start, active := 0.0, !ms[0].arrive
		for _, m := range ms {
			if m.arrive && !active {
				start, active = m.at, true
			} else if !m.arrive && active {
				if m.at > start {
					out = append(out, sim.Window{Start: start, End: m.at})
				}
				active = false
			}
		}
		if active {
			out = append(out, sim.Window{Start: start, End: farFuture})
		}
		if len(out) == 0 {
			// Departed at 0 and never returned: a single empty-by-
			// construction window far in the past keeps the task
			// permanently inactive (the engine rejects truly empty
			// windows, and an empty list would mean always-active).
			out = []sim.Window{{Start: farFuture / 2, End: farFuture}}
		}
		ws[i] = out
	}
	return ws
}

// shapedWorkload layers the timeline's surge and override events on a
// base AET generator. Per-job overrides win over surges; surges raise
// a job's AET to at least frac×WCET when its nominal release falls in
// [at, until). Everything stays a pure function of (task, index), so
// shaped runs are as deterministic as the base generator.
type shapedWorkload struct {
	base      workload.Generator
	tasks     []rtm.Task
	nameIdx   map[string]int
	overrides map[[2]int]float64 // (task, job) -> exact frac
	surges    []surge
}

type surge struct {
	task  int // -1 = every task
	at    float64
	until float64
	frac  float64
}

// newShapedWorkload returns nil when the timeline carries no workload
// events, so the caller can skip the wrapper entirely and keep
// bit-identical replay of unshaped documents (e.g. generated ones).
func newShapedWorkload(doc *Document, base workload.Generator, ts *rtm.TaskSet) *shapedWorkload {
	sw := &shapedWorkload{
		base:      base,
		tasks:     ts.Tasks,
		nameIdx:   map[string]int{},
		overrides: map[[2]int]float64{},
	}
	for i, t := range ts.Tasks {
		sw.nameIdx[t.Name] = i
	}
	for _, ev := range doc.Timeline {
		switch ev.Event {
		case "override":
			sw.overrides[[2]int{sw.nameIdx[ev.Task], ev.Job}] = ev.Frac
		case "surge":
			task := -1
			if ev.Task != "" {
				task = sw.nameIdx[ev.Task]
			}
			sw.surges = append(sw.surges, surge{task: task, at: ev.At, until: ev.Until, frac: ev.Frac})
		}
	}
	if len(sw.overrides) == 0 && len(sw.surges) == 0 {
		return nil
	}
	return sw
}

func (sw *shapedWorkload) Name() string { return "shaped(" + sw.base.Name() + ")" }

func (sw *shapedWorkload) AET(task, index int, wcet float64) float64 {
	if frac, ok := sw.overrides[[2]int{task, index}]; ok {
		return frac * wcet
	}
	aet := sw.base.AET(task, index, wcet)
	nominal := float64(index) * sw.tasks[task].Period
	for _, s := range sw.surges {
		if s.task != -1 && s.task != task {
			continue
		}
		if nominal >= s.at && nominal < s.until {
			aet = math.Max(aet, s.frac*wcet)
		}
	}
	return aet
}

// chaosSpec returns the timeline's chaos event, if any.
func (doc *Document) chaosSpec() *Event {
	for i := range doc.Timeline {
		if doc.Timeline[i].Event == "chaos" {
			return &doc.Timeline[i]
		}
	}
	return nil
}
