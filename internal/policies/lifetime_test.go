package policies

import (
	"math"
	"testing"

	"dvsslack/internal/analysis"
	"dvsslack/internal/cpu"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
	"dvsslack/internal/workload"
)

// lifetimeSentinel wraps a policy and doubles as the run's observer.
// It maps every live *JobState to the (task, index) it was released
// as, checks the mapping at every callback that hands it a job, and
// forgets the pointer once the completion hooks have returned: the
// sim.JobState lifetime rule seen from outside the engine.
type lifetimeSentinel struct {
	t     *testing.T
	inner sim.Policy
	sys   sim.System

	live     map[*sim.JobState][2]int
	released map[*sim.JobState]bool // every struct ever handed out
	liveOf   map[int]int            // live jobs per task
	maxLive  int                    // most live jobs of one task at once
	reused   int                    // releases through an already-used struct
}

func newLifetimeSentinel(t *testing.T, inner sim.Policy) *lifetimeSentinel {
	return &lifetimeSentinel{
		t: t, inner: inner,
		live:     make(map[*sim.JobState][2]int),
		released: make(map[*sim.JobState]bool),
		liveOf:   make(map[int]int),
	}
}

func (s *lifetimeSentinel) check(where string, j *sim.JobState) {
	s.t.Helper()
	want, ok := s.live[j]
	if !ok {
		s.t.Fatalf("%s: %s got T%d#%d through a pointer that is not live",
			s.inner.Name(), where, j.TaskIndex, j.Index)
	}
	if got := [2]int{j.TaskIndex, j.Index}; got != want {
		s.t.Fatalf("%s: %s: the pointer released as T%d#%d now reads T%d#%d",
			s.inner.Name(), where, want[0], want[1], got[0], got[1])
	}
}

func (s *lifetimeSentinel) Name() string { return s.inner.Name() }

func (s *lifetimeSentinel) Reset(sys sim.System) {
	s.sys = sys
	s.inner.Reset(sys)
}

func (s *lifetimeSentinel) OnRelease(j *sim.JobState) {
	if k, dup := s.live[j]; dup {
		s.t.Fatalf("%s: T%d#%d released through the struct of live job T%d#%d",
			s.inner.Name(), j.TaskIndex, j.Index, k[0], k[1])
	}
	if s.released[j] {
		s.reused++
	}
	s.released[j] = true
	s.live[j] = [2]int{j.TaskIndex, j.Index}
	s.liveOf[j.TaskIndex]++
	s.maxLive = max(s.maxLive, s.liveOf[j.TaskIndex])
	s.inner.OnRelease(j)
}

func (s *lifetimeSentinel) SelectSpeed(j *sim.JobState) float64 {
	s.check("SelectSpeed", j)
	for _, a := range s.sys.ActiveJobs() {
		s.check("ActiveJobs", a)
	}
	return s.inner.SelectSpeed(j)
}

func (s *lifetimeSentinel) OnComplete(j *sim.JobState) {
	s.check("OnComplete", j)
	s.inner.OnComplete(j)
}

func (s *lifetimeSentinel) OnAdvance(dt float64) { s.inner.OnAdvance(dt) }

// NextCheck forwards to a Repacer inner policy (DualLevel), so the
// wrapper does not change which decisions the engine makes.
func (s *lifetimeSentinel) NextCheck(j *sim.JobState) float64 {
	s.check("NextCheck", j)
	if rp, ok := s.inner.(sim.Repacer); ok {
		return rp.NextCheck(j)
	}
	return math.Inf(1)
}

func (s *lifetimeSentinel) ObserveRelease(_ float64, j *sim.JobState) { s.check("ObserveRelease", j) }

func (s *lifetimeSentinel) ObserveDispatch(_ float64, j *sim.JobState, _ float64) {
	s.check("ObserveDispatch", j)
}

func (s *lifetimeSentinel) ObserveComplete(_ float64, j *sim.JobState, _ bool) {
	s.check("ObserveComplete", j)
	delete(s.live, j)
	s.liveOf[j.TaskIndex]--
}

func (s *lifetimeSentinel) ObserveIdle(_, _ float64)      {}
func (s *lifetimeSentinel) ObserveSwitch(_, _, _ float64) {}

// TestJobStateLifetime runs every registered policy, bare and under
// each wrapper, on configurations that stress the engine's job
// lifecycle — several live jobs of one task, fixed-priority dispatch,
// activity windows, release jitter, transition stalls — and checks
// that no *JobState changes identity while live. Each run must also
// have released some job through a recycled struct, so the check
// cannot pass vacuously.
func TestJobStateLifetime(t *testing.T) {
	gen := rtm.MustGenerate(rtm.DefaultGenConfig(6, 0.7, 4))
	hyper := sim.DefaultHorizon(gen)
	jittered := rtm.NewTaskSet("jitter",
		rtm.Task{WCET: 1, Period: 5, Jitter: 2},
		rtm.Task{WCET: 2, Period: 10, Jitter: 4},
		rtm.Task{WCET: 3, Period: 20, Jitter: 5})
	windows := make([][]sim.Window, gen.N())
	windows[0] = []sim.Window{{Start: 0, End: hyper / 3}}
	windows[1] = []sim.Window{{Start: hyper / 4, End: hyper / 2}, {Start: 3 * hyper / 4, End: hyper}}
	stalls := cpu.UniformLevels(4)
	stalls.SwitchTime = 0.05
	aet := workload.Uniform{Lo: 0.3, Hi: 1, Seed: 5}
	configs := []struct {
		name  string
		cfg   sim.Config
		piles bool // some task must have several live jobs at once
	}{
		{name: "implicit-deadline", cfg: sim.Config{TaskSet: gen, Processor: cpu.Continuous(0.1), Workload: aet}},
		{name: "overloaded", piles: true, cfg: sim.Config{
			TaskSet: rtm.NewTaskSet("over",
				rtm.Task{WCET: 3, Period: 4},
				rtm.Task{WCET: 2, Period: 5}),
			Processor: cpu.Continuous(0.1), Horizon: 200}},
		{name: "fixed-priorities", cfg: sim.Config{TaskSet: gen, Processor: cpu.Continuous(0.1), Workload: aet,
			FixedPriorities: analysis.RateMonotonicPriorities(gen)}},
		{name: "activity-windows", cfg: sim.Config{TaskSet: gen, Processor: cpu.Continuous(0.1), Workload: aet,
			ActiveWindows: windows}},
		{name: "jitter", cfg: sim.Config{TaskSet: jittered, Processor: cpu.Continuous(0.1), Workload: aet,
			JitterSeed: 9, Horizon: 400}},
		{name: "discrete-stalls", cfg: sim.Config{TaskSet: gen, Processor: stalls, Workload: aet}},
	}
	var specs []string
	for _, name := range Names() {
		specs = append(specs, name, name+"+dual", name+"+guard", name+"+crit")
	}
	for _, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			for _, spec := range specs {
				pol, err := New(spec)
				if err != nil {
					t.Fatal(err)
				}
				s := newLifetimeSentinel(t, pol)
				cfg := c.cfg
				cfg.Policy, cfg.Observer = s, s
				res, err := sim.Run(cfg)
				if err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
				if len(s.live) != 0 {
					t.Errorf("%s: %d jobs still live after the run", spec, len(s.live))
				}
				if s.reused == 0 || len(s.released) >= res.JobsReleased {
					t.Errorf("%s: %d releases through %d structs, %d reused: nothing was recycled",
						spec, res.JobsReleased, len(s.released), s.reused)
				}
				if c.piles && s.maxLive < 2 {
					t.Errorf("%s: at most %d live jobs per task; the config does not overload", spec, s.maxLive)
				}
			}
		})
	}
}
