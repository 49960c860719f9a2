package core

import (
	"math"
	"testing"

	"dvsslack/internal/prng"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

// onGridPools mixes integer period pools (calendar walk) with decimal
// ones (linear merge): stream deadlines and grid positions are then
// float sums that can straddle a window boundary by an ulp.
var onGridPools = [][]float64{
	{2, 3, 4, 6},
	{4, 8, 16},
	{5, 10, 15, 30},
	{10, 20, 25, 50, 100},
	{2.5, 5, 7.5, 10},
	{2.4, 4.8, 9.6, 38.4},
}

// onGridState is a mid-run state of a task set: active jobs, the
// NoReclaim phantoms of completed ones, and each task's next release.
type onGridState struct {
	ts       *rtm.TaskSet
	now      float64
	active   []*sim.JobState
	phantoms []phantom
	rel      []float64
}

func (s *onGridState) nextRel(i int) float64 { return s.rel[i] }

// analyzer returns a fresh analyzer for the state with its phantoms
// registered (those past t already dropped).
func (s *onGridState) analyzer(t float64) *Analyzer {
	a := NewAnalyzer(s.ts)
	for _, p := range s.phantoms {
		if p.deadline > t {
			a.AddPhantom(p.deadline, p.rem, p.onGrid)
		}
	}
	return a
}

// onGridCase draws a task set — constrained deadlines and release
// jitter on some tasks, utilization in [0.3, 1) or, one case in six,
// exactly 1 — and a consistent mid-run state that mixes every kind of
// demand entry the certificate tells apart:
//
//   - on-grid active jobs, released exactly at k·Period;
//   - jittered active jobs, released late, whose own grid slot
//     k·Period + D lies before or after now;
//   - NoReclaim phantoms of completed on-grid and jittered jobs;
//   - streams an activity window skipped ahead (the skipped job never
//     released).
//
// Every stream starts at its task's first unreleased index, as the
// engine's NextReleaseOf does, and sits on its release grid, so the
// certificate is in play.
func onGridCase(seed uint64) *onGridState {
	src := prng.New(seed)
	pool := onGridPools[src.Intn(len(onGridPools))]
	var tasks []rtm.Task
	if src.Intn(6) == 0 {
		// Utilization exactly 1: task pairs with C = T/2.
		for i := 0; i < 2; i++ {
			p := pool[src.Intn(len(pool))] * 2
			tasks = append(tasks, rtm.Task{WCET: p / 2, Period: p})
		}
	} else {
		n := 1 + src.Intn(7)
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
			if src.Intn(3) == 0 {
				task.Deadline = src.Range(task.WCET, p)
			}
			tasks = append(tasks, task)
		}
	}
	for i := range tasks {
		if src.Intn(2) == 0 {
			tasks[i].Jitter = src.Range(0.1, 0.6) * tasks[i].Period
		}
	}
	s := &onGridState{ts: rtm.NewTaskSet("ongrid", tasks...)}
	h, ok := s.ts.Hyperperiod()
	if !ok {
		h = 100
	}
	s.now = src.Range(0, 4*h)
	s.rel = make([]float64, len(tasks))
	for i, task := range s.ts.Tasks {
		k := math.Floor(s.now / task.Period)
		skip := src.Intn(5) == 0
		s.rel[i] = (k + 1) * task.Period
		if skip {
			s.rel[i] += float64(src.Intn(3)) * task.Period
		}
		for m := k - 1; m <= k; m++ {
			if m < 0 || (m == k && skip) {
				continue
			}
			j := s.ts.JobOf(i, int(m))
			if task.Jitter > 0 && src.Intn(4) != 0 {
				// Released late, but no later than now: a pending
				// release would take the stream off its grid.
				d := src.Float64() * math.Min(task.Jitter, s.now-j.Release)
				j.Release += d
				j.AbsDeadline += d
			}
			if j.AbsDeadline <= s.now || j.Release > s.now {
				continue
			}
			onGrid := j.Release == float64(j.Index)*task.Period
			switch src.Intn(3) {
			case 0:
				js := &sim.JobState{Job: j}
				js.Executed = src.Float64() * math.Min(task.WCET, s.now-j.Release)
				s.active = append(s.active, js)
			case 1:
				rem := src.Range(0.05, 1) * task.WCET
				s.phantoms = append(s.phantoms, phantom{deadline: j.AbsDeadline, rem: rem, onGrid: onGrid})
			}
		}
	}
	return s
}

// TestOnGridCertificateMatchesRescan pins the certificate's on-grid
// accounting, which charges an unfolded job released exactly at
// k·Period only through the grid's WCET at its own slot, and every
// jittered job or phantom in full. On random states mixing both kinds,
// Slack must equal the full-rescan oracle exactly (==), on a first and
// a repeated call.
// After random execution, completions and credits, the staircase bound
// must stay at or below a fresh analysis at the later instant.
func TestOnGridCertificateMatchesRescan(t *testing.T) {
	var certified, slotBefore, slotAfter, gridPhantoms, stairChecks int
	for seed := uint64(1); seed <= 1500; seed++ {
		s := onGridCase(seed)
		for _, j := range s.active {
			nominal := float64(j.Index) * s.ts.Tasks[j.TaskIndex].Period
			switch slot := j.AbsDeadline - (j.Release - nominal); {
			case j.Release == nominal:
			case slot <= s.now:
				slotBefore++
			default:
				slotAfter++
			}
		}
		for _, p := range s.phantoms {
			if p.onGrid {
				gridPhantoms++
			}
		}

		inc, ora := s.analyzer(s.now), s.analyzer(s.now)
		ora.SetFullRescan(true)
		gotL := inc.Slack(s.now, s.active, s.nextRel)
		if _, cert, _ := inc.LastScan(); cert {
			certified++
		}
		if wantL := ora.Slack(s.now, s.active, s.nextRel); gotL != wantL {
			t.Fatalf("seed %d: Slack %v != rescan %v (tasks %v, now %v)", seed, gotL, wantL, s.ts.Tasks, s.now)
		}
		gotL = inc.Slack(s.now, s.active, s.nextRel)
		if wantL := ora.Slack(s.now, s.active, s.nextRel); gotL != wantL {
			t.Fatalf("seed %d: repeated Slack %v != rescan %v", seed, gotL, wantL)
		}

		// Staircase: analyze once, then let time pass without crossing
		// a release or an active deadline, executing the EDF head,
		// completing jobs early and crediting as lpSHE does.
		st := s.analyzer(s.now)
		st.SetStairCapture(true)
		st.Slack(s.now, s.active, s.nextRel)
		limit := math.Inf(1)
		for i := range s.rel {
			limit = math.Min(limit, s.rel[i])
		}
		for _, j := range s.active {
			limit = math.Min(limit, j.AbsDeadline)
		}
		src := prng.New(seed ^ 0x5eed)
		t1 := s.now
		for step := 0; step < 6 && len(s.active) > 0; step++ {
			dt := src.Float64() * (limit - t1) / 2
			head := s.active[0]
			for _, j := range s.active[1:] {
				if j.AbsDeadline < head.AbsDeadline {
					head = j
				}
			}
			t1 += dt
			if x := math.Min(src.Float64()*dt, head.RemainingWCET()); x > 0 {
				head.Executed += x
				st.StairCredit(t1, head.AbsDeadline, x)
			}
			switch src.Intn(3) {
			case 0:
				// Early completion: the unused allowance leaves h.
				st.StairCredit(t1, head.AbsDeadline, head.RemainingWCET())
				rest := s.active[:0]
				for _, j := range s.active {
					if j != head {
						rest = append(rest, j)
					}
				}
				s.active = rest
			case 1:
				st.StairCredit(t1, t1+src.Range(0, 50), 0)
			}
			lb := st.StairBound(t1)
			truth := s.analyzer(t1).Slack(t1, s.active, s.nextRel)
			if lb > truth+1e-9*(1+t1) {
				t.Fatalf("seed %d step %d t=%v: stair bound %v above fresh slack %v", seed, step, t1, lb, truth)
			}
			stairChecks++
		}
	}
	t.Logf("%d certified stops, jittered active jobs with slot before/after now %d/%d, on-grid phantoms %d, %d staircase checks",
		certified, slotBefore, slotAfter, gridPhantoms, stairChecks)
	if certified == 0 || slotBefore == 0 || slotAfter == 0 || gridPhantoms == 0 || stairChecks == 0 {
		t.Error("the generator no longer covers every entry kind")
	}
}
