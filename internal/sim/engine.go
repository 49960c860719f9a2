package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"dvsslack/internal/cpu"
	"dvsslack/internal/prng"
	"dvsslack/internal/rtm"
	"dvsslack/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// TaskSet is the periodic task set to schedule (required).
	TaskSet *rtm.TaskSet
	// Processor is the CPU model (required; its SMin or lowest
	// level must be positive).
	Processor *cpu.Processor
	// Policy selects execution speeds (required).
	Policy Policy
	// Workload generates per-job actual execution times. Nil means
	// every job runs to its WCET.
	Workload workload.Generator
	// Horizon is the release horizon: jobs released strictly before
	// it are simulated to completion. Zero selects DefaultHorizon.
	Horizon float64
	// StrictDeadlines makes Run return an error on the first
	// deadline miss instead of counting it.
	StrictDeadlines bool
	// Observer, when non-nil, receives fine-grained events.
	Observer Observer
	// JitterSeed selects the pseudo-random stream for release
	// jitter (tasks with a positive Jitter field). The stream is a
	// pure function of (JitterSeed, task, job index), so runs are
	// reproducible and identical across policies.
	JitterSeed uint64
	// FixedPriorities, when non-empty, switches dispatching from
	// EDF to preemptive fixed-priority scheduling: entry i is task
	// i's priority (lower = more urgent; see
	// analysis.RateMonotonicPriorities). Length must equal the task
	// count. The shipped DVS policies assume EDF — use fixed
	// priorities only with NonDVS/constant-speed policies or
	// schedulability studies.
	FixedPriorities []int
	// ActiveWindows, when non-empty, restricts when each task
	// releases jobs: entry i lists task i's activity windows, and a
	// job is released iff its *nominal* release instant (index ×
	// period) falls inside one of them. An empty per-task list means
	// the task is always active. Length must equal the task count.
	//
	// Ineligible releases are skipped entirely — the cursors jump
	// past them — so surviving jobs keep their k·Period release grid
	// and every audit invariant holds unchanged. Mode changes (task
	// arrival mid-run, departure, a task that pauses and resumes)
	// are all expressible this way. Skipping future releases only
	// removes demand the slack analysis would otherwise budget for,
	// so the lpSHE deadline guarantee is preserved: the analysis
	// stays conservative, never optimistic.
	ActiveWindows [][]Window
}

// Window is a half-open activity interval [Start, End): a task with
// activity windows releases exactly the jobs whose nominal release
// instants fall inside one.
type Window struct {
	Start float64
	End   float64
}

// DefaultHorizon returns the standard simulation length for a task
// set: one hyperperiod when it is exactly computable and of
// reasonable size, otherwise 32 times the largest period.
func DefaultHorizon(ts *rtm.TaskSet) float64 {
	const maxHyper = 1e7
	if h, ok := ts.Hyperperiod(); ok && h <= maxHyper {
		return h
	}
	return 32 * ts.MaxPeriod()
}

// Run executes one simulation and returns its aggregate Result.
func Run(cfg Config) (Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.Run()
}

// Engine is the mutable simulation state. Construct with NewEngine;
// either drive the whole run with Run, or step event by event with
// Step/Finish. Every Step boundary is a valid checkpoint instant: the
// run is deterministic in its Config, so Steps and Digest identify
// the state there completely (see internal/snapshot).
type Engine struct {
	cfg     Config
	horizon float64

	began bool   // Policy.Reset and the initial releases happened
	ended bool   // the event loop reached its natural end
	steps uint64 // Step calls that advanced the run

	t          float64
	active     jobHeap
	nextIdx    []int     // next job index per task
	nomNext    []float64 // nominal next release (index * period)
	actualNext []float64 // jittered next release (>= nominal)

	rel releaseIndex

	curSpeed float64
	speedSet bool
	running  *JobState

	// free holds completed job states for newJob to reuse, so a
	// run allocates one JobState per concurrently live job rather
	// than one per release (see the JobState lifetime rule).
	free []*JobState

	res Result
	err error
}

// releaseIndex caches the three minima over the per-task release
// cursors that the engine and the policies query at every scheduling
// decision — often several times per decision (the slack analysis
// alone reads NextRelease and NextDecisionBound, and the event loop
// reads nextReleaseEvent between every pair of events). The cursors
// only move forward when releaseDue admits a job, so the minima are
// recomputed in one O(n) pass per release advance and served as O(1)
// reads in between, replacing the previous O(n) scan per query.
type releaseIndex struct {
	dirty    bool
	minNom   float64 // min over tasks of the nominal next release
	minEvent float64 // earliest actual (jittered) release with nominal < horizon
	minBound float64 // earliest guaranteed release (nominal+jitter) with nominal < horizon
}

// refreshReleaseIndex recomputes the cached minima after the release
// cursors moved. One pass covers all three so a release batch costs a
// single O(n) scan regardless of how many queries follow.
func (e *Engine) refreshReleaseIndex() {
	if !e.rel.dirty {
		return
	}
	e.rel.dirty = false
	e.rel.minNom, e.rel.minEvent, e.rel.minBound = infinity, infinity, infinity
	tasks := e.cfg.TaskSet.Tasks
	for i := range e.nomNext {
		nom := e.nomNext[i]
		if nom < e.rel.minNom {
			e.rel.minNom = nom
		}
		if nom >= e.horizon {
			continue
		}
		if a := e.actualNext[i]; a < e.rel.minEvent {
			e.rel.minEvent = a
		}
		if b := nom + tasks[i].Jitter; b < e.rel.minBound {
			e.rel.minBound = b
		}
	}
}

// NewEngine validates cfg and returns a fresh engine positioned at
// t = 0, before any policy reset or release. Use Run for a whole run
// or Step/Finish to drive it event by event.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.TaskSet == nil {
		return nil, errors.New("sim: Config.TaskSet is required")
	}
	if err := cfg.TaskSet.Validate(); err != nil {
		return nil, err
	}
	if cfg.Processor == nil {
		return nil, errors.New("sim: Config.Processor is required")
	}
	if err := cfg.Processor.Validate(); err != nil {
		return nil, err
	}
	if cfg.Processor.Clamp(0) <= 0 {
		return nil, errors.New("sim: processor minimum speed must be positive")
	}
	if cfg.Policy == nil {
		return nil, errors.New("sim: Config.Policy is required")
	}
	if cfg.Workload == nil {
		cfg.Workload = workload.WorstCase{}
	}
	horizon := cfg.Horizon
	if horizon == 0 {
		horizon = DefaultHorizon(cfg.TaskSet)
	}
	if horizon <= 0 || math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		return nil, fmt.Errorf("sim: invalid horizon %v", horizon)
	}
	n := cfg.TaskSet.N()
	if len(cfg.FixedPriorities) != 0 && len(cfg.FixedPriorities) != n {
		return nil, fmt.Errorf("sim: FixedPriorities has %d entries for %d tasks",
			len(cfg.FixedPriorities), n)
	}
	if len(cfg.ActiveWindows) != 0 {
		if len(cfg.ActiveWindows) != n {
			return nil, fmt.Errorf("sim: ActiveWindows has %d entries for %d tasks",
				len(cfg.ActiveWindows), n)
		}
		for i, ws := range cfg.ActiveWindows {
			prev := math.Inf(-1)
			for k, w := range ws {
				if !(w.Start >= 0) || math.IsInf(w.Start, 0) || math.IsNaN(w.End) || math.IsInf(w.End, 0) {
					return nil, fmt.Errorf("sim: ActiveWindows[%d][%d] = [%v,%v) is not a finite non-negative interval",
						i, k, w.Start, w.End)
				}
				if w.End <= w.Start {
					return nil, fmt.Errorf("sim: ActiveWindows[%d][%d] = [%v,%v) is empty or inverted",
						i, k, w.Start, w.End)
				}
				if w.Start < prev {
					return nil, fmt.Errorf("sim: ActiveWindows[%d][%d] starts at %v, before the previous window ends (%v)",
						i, k, w.Start, prev)
				}
				prev = w.End
			}
		}
	}
	e := &Engine{
		cfg:        cfg,
		horizon:    horizon,
		nextIdx:    make([]int, n),
		nomNext:    make([]float64, n),
		actualNext: make([]float64, n),
	}
	e.active.byPriority = len(cfg.FixedPriorities) != 0
	// Pre-size the ready queue and the free list from the task
	// count: with feasible implicit-deadline sets at most one job per
	// task is live, so neither backing array reallocates mid-run.
	e.active.jobs = make([]*JobState, 0, n)
	e.free = make([]*JobState, 0, n)
	for i := range cfg.TaskSet.Tasks {
		e.actualNext[i] = e.jitteredRelease(i, 0)
		e.skipInactive(i)
	}
	e.rel.dirty = true
	e.res.Policy = cfg.Policy.Name()
	return e, nil
}

// releaseEligible reports whether job k·Period of task i survives the
// configured activity windows.
func (e *Engine) releaseEligible(task int, nominal float64) bool {
	if len(e.cfg.ActiveWindows) == 0 {
		return true
	}
	ws := e.cfg.ActiveWindows[task]
	if len(ws) == 0 {
		return true
	}
	for _, w := range ws {
		if nominal >= w.Start && nominal < w.End {
			return true
		}
	}
	return false
}

// skipInactive advances task i's release cursors past every nominal
// release the activity windows suppress, stopping at the first
// eligible release (or the horizon). Surviving jobs keep their
// nominal k·Period grid, so job indices and the audit oracle's
// release-window invariant are untouched.
func (e *Engine) skipInactive(i int) {
	if len(e.cfg.ActiveWindows) == 0 || len(e.cfg.ActiveWindows[i]) == 0 {
		return
	}
	period := e.cfg.TaskSet.Tasks[i].Period
	for e.nomNext[i] < e.horizon && !e.releaseEligible(i, e.nomNext[i]) {
		e.nextIdx[i]++
		e.nomNext[i] = float64(e.nextIdx[i]) * period
		e.actualNext[i] = e.jitteredRelease(i, e.nextIdx[i])
		e.rel.dirty = true
	}
}

// jitteredRelease returns the actual release time of job k of task i:
// the nominal k·Period plus a deterministic draw from [0, Jitter].
func (e *Engine) jitteredRelease(task, k int) float64 {
	t := e.cfg.TaskSet.Tasks[task]
	nominal := float64(k) * t.Period
	if t.Jitter == 0 {
		return nominal
	}
	u := prng.Float64(prng.Hash3(e.cfg.JitterSeed^0x6a5d39e1, task, k))
	return nominal + t.Jitter*u
}

// --- System interface (the policy-facing read-only view) ---

func (e *Engine) TaskSet() *rtm.TaskSet { return e.cfg.TaskSet }

func (e *Engine) Processor() *cpu.Processor { return e.cfg.Processor }

func (e *Engine) Now() float64 { return e.t }

func (e *Engine) ActiveJobs() []*JobState { return e.active.jobs }

func (e *Engine) NextRelease() float64 {
	if len(e.nomNext) == 0 {
		return infinity
	}
	// min over tasks of NextReleaseOf(i): every term is >= e.t, and
	// the smallest nominal cursor decides whether the minimum is a
	// future instant or "right now".
	e.refreshReleaseIndex()
	if e.rel.minNom > e.t {
		return e.rel.minNom
	}
	return e.t
}

func (e *Engine) NextReleaseOf(task int) float64 {
	// Earliest *possible* next release from the scheduler's point of
	// view: the nominal instant, or "right now" if the nominal
	// instant has passed but the jittered arrival is still pending.
	// Policies must never observe the drawn arrival time itself —
	// a real scheduler would not know it either.
	if nom := e.nomNext[task]; nom > e.t {
		return nom
	}
	return e.t
}

func (e *Engine) NextDecisionBound() float64 {
	// Latest instant by which a release (and hence a scheduling
	// decision) is guaranteed, given pending releases within the
	// horizon: nominal + jitter bounds the drawn arrival.
	e.refreshReleaseIndex()
	return e.rel.minBound
}

// nextReleaseEvent returns the earliest actual (jittered) release the
// engine will perform, or +Inf if releases have ended.
func (e *Engine) nextReleaseEvent() float64 {
	e.refreshReleaseIndex()
	return e.rel.minEvent
}

// --- engine body ---

// Run drives the event loop to its end and returns the aggregate
// Result. Equivalent to calling Step until it reports false, then
// Finish.
func (e *Engine) Run() (Result, error) {
	for e.Step() {
	}
	return e.Finish()
}

// Step advances the simulation by one event-loop iteration — at most
// one scheduling decision plus the busy or idle interval to the next
// event — and reports whether the run can continue. It returns false
// once the run has ended, either naturally or on an error (see
// Finish). The instants between Step calls are the engine's
// checkpoint boundaries: Steps and Digest describe the run exactly
// there.
func (e *Engine) Step() bool {
	if e.err != nil || e.ended {
		return false
	}
	e.steps++
	if !e.began {
		e.began = true
		e.cfg.Policy.Reset(e)
		e.releaseDue()
	}
	if len(e.active.jobs) == 0 {
		nr := e.nextReleaseEvent()
		if math.IsInf(nr, 1) {
			// All work done; idle out the remaining horizon so
			// every run covers the same wall-clock span.
			if e.t < e.horizon {
				e.advanceIdle(e.horizon - e.t)
			}
			e.ended = true
			return false
		}
		e.advanceIdle(nr - e.t)
		e.releaseDue()
		return true
	}

	j := e.active.jobs[0]
	e.res.Decisions++
	s := e.cfg.Processor.Clamp(e.cfg.Policy.SelectSpeed(j))
	if !(s > 0) {
		e.err = fmt.Errorf("sim: policy %s selected non-positive speed %v at t=%v",
			e.cfg.Policy.Name(), s, e.t)
		return false
	}
	if stalled := e.setSpeed(s); stalled {
		// The transition consumed wall-clock time. If a release
		// landed inside the stall, loop back for a fresh
		// decision: the policies' deadline arguments rely on a
		// scheduling decision at *every* release, including
		// those hidden by the stall. Without a release the
		// chosen speed stands (re-deciding unconditionally would
		// let a pathological policy flip speeds forever without
		// executing anything).
		if e.releaseDue() {
			return true
		}
	}
	e.dispatch(j, s)

	finish := e.t + j.remainingActual()/s
	next := e.nextReleaseEvent()
	// Intra-job power-management point: a Repacer policy may
	// request an additional mid-job decision.
	if rp, ok := e.cfg.Policy.(Repacer); ok {
		if at := rp.NextCheck(j); at > e.t+1e-12 && at < next {
			next = at
		}
	}
	if finish <= next {
		e.advanceBusy(finish-e.t, s)
		e.complete(j)
		// A release can coincide with the completion instant.
		e.releaseDue()
		return true
	}
	e.advanceBusy(next-e.t, s)
	if j.remainingActual() <= 1e-12 {
		// The job's actual work ran out exactly at the event
		// boundary: complete it now, before admitting arrivals,
		// so its finish time is not deferred past this instant.
		e.complete(j)
	}
	e.releaseDue()
	return true
}

// Finish finalizes the aggregate Result once Step has reported false
// and returns it together with the run's error, if any. Calling it
// earlier returns the partial result accumulated so far (the
// checkpoint path never does; it records Steps and Digest instead).
func (e *Engine) Finish() (Result, error) {
	e.res.Time = math.Max(e.t, e.horizon)
	e.res.Energy = e.res.BusyEnergy + e.res.IdleEnergy + e.res.SwitchEnergy
	if inst, ok := e.cfg.Policy.(Instrumented); ok {
		e.res.PolicyCounters = inst.Counters()
	}
	return e.res, e.err
}

// Steps returns how many Step calls have advanced the run, counting
// the call that ended it. The engine, the workload and every policy
// are deterministic in the Config, so a fresh engine for the same
// Config stepped this many times reaches this exact state.
func (e *Engine) Steps() uint64 { return e.steps }

// Digest fingerprints the engine's observables at the current Step
// boundary: the clock and speed, the energy and time accounting,
// every counter, the ready-queue size, and whether the run has ended
// or failed. A replay compares digests to prove that re-executing a
// prefix reached the state that was captured.
func (e *Engine) Digest() [sha256.Size]byte {
	r := &e.res
	var buf [17*8 + 2]byte
	b := buf[:0]
	for _, f := range [...]float64{
		e.t, e.curSpeed, r.BusyEnergy, r.IdleEnergy, r.SwitchEnergy,
		r.IdleTime, r.SleepTime, r.WorkDone, r.SpeedTimeIntegral,
	} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	for _, n := range [...]int{
		r.JobsReleased, r.JobsCompleted, r.DeadlineMisses, r.SpeedSwitches,
		r.Preemptions, r.Decisions, r.Sleeps, len(e.active.jobs),
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(n))
	}
	b = append(b, flag(e.ended), flag(e.err != nil))
	return sha256.Sum256(b)
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// releaseDue materializes every job whose (jittered) release time has
// arrived and reports whether any job was released. The horizon cuts
// off on nominal release times so the released job population is
// identical across jitter seeds.
func (e *Engine) releaseDue() bool {
	if e.nextReleaseEvent() > e.t {
		return false // the cached minimum: no cursor is due
	}
	ts := e.cfg.TaskSet
	released := false
	for i := range ts.Tasks {
		for e.actualNext[i] <= e.t && e.nomNext[i] < e.horizon {
			j := e.newJob(i, e.nextIdx[i], e.actualNext[i])
			e.nextIdx[i]++
			e.nomNext[i] = float64(e.nextIdx[i]) * ts.Tasks[i].Period
			e.actualNext[i] = e.jitteredRelease(i, e.nextIdx[i])
			e.rel.dirty = true
			e.skipInactive(i)
			e.active.push(j)
			e.res.JobsReleased++
			released = true
			e.cfg.Policy.OnRelease(j)
			if e.cfg.Observer != nil {
				e.cfg.Observer.ObserveRelease(e.t, j)
			}
		}
	}
	return released
}

func (e *Engine) newJob(task, idx int, release float64) *JobState {
	job := e.cfg.TaskSet.JobOf(task, idx)
	// Jitter shifts the actual release and the absolute deadline
	// with it; WCET and relative deadline are unchanged.
	job.AbsDeadline += release - job.Release
	job.Release = release
	aet := e.cfg.Workload.AET(task, idx, job.WCET)
	if aet > job.WCET {
		aet = job.WCET
	}
	if aet < 1e-9 {
		aet = 1e-9
	}
	job.AET = aet
	var js *JobState
	if k := len(e.free) - 1; k >= 0 {
		js = e.free[k]
		e.free = e.free[:k]
	} else {
		js = new(JobState)
	}
	*js = JobState{Job: job, heapIndex: -1}
	if len(e.cfg.FixedPriorities) > 0 {
		js.Priority = float64(e.cfg.FixedPriorities[task])
	}
	return js
}

// setSpeed applies a speed setting, accounting for switch count,
// transition energy, and (when configured) the transition stall. It
// reports whether a stall consumed time.
func (e *Engine) setSpeed(s float64) bool {
	if e.speedSet && nearlyEqual(s, e.curSpeed) {
		return false
	}
	if !e.speedSet {
		// The initial setting at t=0 is not a transition.
		e.speedSet = true
		e.curSpeed = s
		return false
	}
	from := e.curSpeed
	e.curSpeed = s
	e.res.SpeedSwitches++
	e.res.SwitchEnergy += e.cfg.Processor.SwitchEnergy(from, s)
	if e.cfg.Observer != nil {
		e.cfg.Observer.ObserveSwitch(e.t, from, s)
	}
	if st := e.cfg.Processor.SwitchTime; st > 0 {
		// The PLL/regulator settles for SwitchTime; no work is
		// performed. Power during the stall is charged at the
		// higher of the two operating points (conservative).
		p := math.Max(e.cfg.Processor.BusyPower(from), e.cfg.Processor.BusyPower(s))
		e.res.SwitchEnergy += p * st
		e.t += st
		e.cfg.Policy.OnAdvance(st)
		return true
	}
	return false
}

func (e *Engine) dispatch(j *JobState, s float64) {
	if e.running != nil && e.running != j && !e.running.Done && e.running.Started {
		e.res.Preemptions++
	}
	j.Speed = s
	j.Started = true
	e.running = j
	if e.cfg.Observer != nil {
		e.cfg.Observer.ObserveDispatch(e.t, j, s)
	}
}

func (e *Engine) advanceBusy(dt, s float64) {
	if dt < 0 {
		dt = 0
	}
	j := e.active.jobs[0]
	j.Executed += dt * s
	if j.Executed > j.AET && j.Executed-j.AET < 1e-9 {
		j.Executed = j.AET // absorb rounding at completion
	}
	e.t += dt
	e.res.BusyEnergy += e.cfg.Processor.BusyPower(s) * dt
	e.res.WorkDone += dt * s
	e.res.SpeedTimeIntegral += dt * s
	e.cfg.Policy.OnAdvance(dt)
}

func (e *Engine) advanceIdle(dt float64) {
	if dt <= 0 {
		return
	}
	t0 := e.t
	e.t += dt
	proc := e.cfg.Processor
	if proc.CanSleep() && dt >= proc.BreakEvenIdle() {
		// The whole gap until the next release is known, so the
		// sleep decision is exact (a real kernel would use a
		// timeout; the difference is the sub-break-even tail).
		e.res.IdleEnergy += proc.WakeEnergy + proc.SleepPower*dt
		e.res.Sleeps++
		e.res.SleepTime += dt
	} else {
		e.res.IdleEnergy += proc.AwakeIdlePower() * dt
	}
	e.res.IdleTime += dt
	e.cfg.Policy.OnAdvance(dt)
	if e.cfg.Observer != nil {
		e.cfg.Observer.ObserveIdle(t0, e.t)
	}
}

func (e *Engine) complete(j *JobState) {
	e.active.remove(j.heapIndex)
	j.Done = true
	j.Finish = e.t
	if e.running == j {
		e.running = nil
	}
	missed := e.t > j.AbsDeadline+Eps
	if missed {
		e.res.DeadlineMisses++
		if e.cfg.StrictDeadlines {
			e.err = fmt.Errorf("sim: policy %s: job %s missed deadline %v (finished %v)",
				e.cfg.Policy.Name(), j.ID(), j.AbsDeadline, e.t)
		}
	}
	e.res.JobsCompleted++
	e.cfg.Policy.OnComplete(j)
	if e.cfg.Observer != nil {
		e.cfg.Observer.ObserveComplete(e.t, j, missed)
	}
	// The completion hooks have returned: j's lifetime is over.
	e.free = append(e.free, j)
}

// nearlyEqual compares speeds with a tight relative tolerance so that
// repeated selections of the "same" speed do not count as switches.
func nearlyEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
