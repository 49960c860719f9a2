package core

import (
	"fmt"
	"math"

	"dvsslack/internal/sim"
)

// Variant selects which parts of the slack analysis an LpSHE policy
// instance uses; the non-default values exist for the F8 ablation
// experiment and are all deadline-safe (they only ever select speeds
// at least as high as analysis requires).
type Variant int

const (
	// Full is the paper's algorithm as shipped: exact slack-time
	// analysis carrying the guarantee, with the pace/fill shaping
	// described on LpSHE choosing where in the sound region the
	// speed lands.
	Full Variant = iota
	// Greedy gives the entire analyzed slack to the current job:
	// s = w/(w + L(t)). Deadline-safe but convexity-blind; kept as
	// the ablation showing why the balanced reading matters.
	Greedy
	// NoReclaim disables reclamation: the unused worst-case
	// allowance of an early-completed job is kept as phantom demand
	// until the job's deadline passes, so only static and
	// idle-interval slack remain.
	NoReclaim
	// Horizon8 truncates the analysis scan to 8 deadlines,
	// degrading to the sound conservative readings beyond them.
	Horizon8
	// Horizon32 truncates the analysis scan to 32 deadlines.
	Horizon32
	// Rescan disables the incremental certificate and walks the
	// deadline axis to the classic cutoffs at every decision, kept as
	// the crosscheck oracle for differential testing (results must be
	// byte-identical to Full).
	Rescan
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Full:
		return "full"
	case Greedy:
		return "greedy"
	case NoReclaim:
		return "no-reclaim"
	case Horizon8:
		return "horizon8"
	case Horizon32:
		return "horizon32"
	case Rescan:
		return "rescan"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// LpSHE is the paper's DVS policy. At every scheduling point it runs
// the slack-time analysis over the released jobs and the future
// (earliest-possible) periodic releases, obtaining the system slack
// L(t), and selects the speed of the earliest-deadline job as
//
//	s = max( ownDeadlineFloor, soundFloor, min(pace, fill) )
//
// where:
//
//   - soundFloor = min( w/(w+L), 1 − L/(b−t) ) is the minimal speed
//     that provably preserves full-speed EDF feasibility until the
//     next scheduling point (b = guaranteed next-decision bound) —
//     this floor alone carries the entire hard real-time guarantee;
//   - pace is the utilization-shaped smoothing target, predicting
//     each task's usage share from its most recent actual execution
//     time (an active job contributes max(prediction, executed)),
//     the distribution a convex power curve prefers during busy
//     intervals;
//   - fill = backlog/(nextRelease − t) harvests idle-interval slack
//     during drain phases;
//   - ownDeadlineFloor = w/(d − t) always completes the dispatched
//     job by its own deadline.
//
// Because the analysis is recomputed at each release and completion,
// early-finishing jobs (dynamic slack), unused utilization (static
// slack), and gaps before future releases (idle-interval slack) all
// flow into the speed automatically; the pacing heuristics influence
// only where in the sound region the speed lands, never safety.
//
// The processor clamp (round-up on discrete level sets, floor at
// SMin) only ever raises the speed, so the hard real-time guarantee
// of the analysis is preserved verbatim. Release jitter is covered:
// the analysis assumes earliest-possible arrivals and the event
// floor uses the guaranteed decision bound (nominal plus jitter).
type LpSHE struct {
	sim.NopHooks

	// Variant selects the ablation mode (default Full).
	Variant Variant

	sys      sim.System
	analyzer *Analyzer
	decided  float64
	// Fast-path state (Full variant only): the analyzer's slack
	// staircase (SetStairCapture) holds a sound lower bound on the
	// current slack between analyses; this policy only has to feed
	// it credits. runJob/runExec identify the running job and its
	// executed work at the last harvest, so the credit is ground
	// truth — correct even when a wrapper or a discrete level set
	// runs the job at a different speed than this policy returned.
	// haveL records that a first analysis populated the staircase;
	// fastHits counts decisions served from the bound without
	// re-analyzing.
	runJob   *sim.JobState
	runExec  float64
	haveL    bool
	fastHits float64
	// lastUsage[i] is the actual work the most recent completed job
	// of task i performed (initialized to the WCET). It feeds only
	// the pacing heuristic, never the guarantee.
	lastUsage []float64
	// nextReleaseOf caches the bound sys.NextReleaseOf method value
	// so SelectSpeed does not materialize a closure per decision.
	nextReleaseOf func(int) float64
	// expected/hasActive are per-decision scratch for the pacing
	// pass, reused so the steady-state decision path allocates
	// nothing. Like the Analyzer's scratch, they make an LpSHE
	// instance single-goroutine (one policy instance per concurrent
	// run — what the engine and harness already guarantee).
	// invPeriod caches 1/Period so the per-decision pacing loop
	// multiplies instead of dividing.
	expected  []float64
	hasActive []bool
	invPeriod []float64
	touched   []int
	// basePace is Σ lastUsage[i]/Period[i], maintained incrementally
	// as completions update lastUsage so paceFill only has to adjust
	// for the currently active tasks instead of walking every task.
	basePace float64
	// sMin and reserve cache the processor constants (floor speed and
	// the two-stall transition reserve) — fixed for a run, read every
	// decision.
	sMin    float64
	reserve float64
	// Per-decision provenance (sim.DecisionExplainer): which path the
	// most recent SelectSpeed took, how many deadlines it scanned, and
	// the cumulative staircase credits harvested since Reset.
	lastPath    sim.DecisionPath
	lastScanLen int
	credited    float64
}

// NewLpSHE returns the paper's algorithm in its standard (Full)
// configuration.
func NewLpSHE() *LpSHE { return &LpSHE{} }

// NewLpSHEVariant returns the algorithm with an ablation variant.
func NewLpSHEVariant(v Variant) *LpSHE { return &LpSHE{Variant: v} }

// Name implements sim.Policy.
func (p *LpSHE) Name() string {
	if p.Variant == Full {
		return "lpSHE"
	}
	return "lpSHE-" + p.Variant.String()
}

// Reset implements sim.Policy.
func (p *LpSHE) Reset(sys sim.System) {
	p.sys = sys
	ts := sys.TaskSet()
	if p.analyzer == nil || !p.analyzer.ReuseFor(ts) {
		p.analyzer = NewAnalyzer(ts)
	}
	p.nextReleaseOf = sys.NextReleaseOf
	p.decided = 0
	p.runJob, p.runExec, p.haveL, p.fastHits = nil, 0, false, 0
	p.lastPath, p.lastScanLen, p.credited = sim.PathUnknown, 0, 0
	n := ts.N()
	if len(p.lastUsage) != n {
		// One backing array for the per-task float scratch: three
		// fewer allocations per construction, and the hot pacing loop
		// touches one cache neighborhood instead of three.
		buf := make([]float64, 3*n)
		p.lastUsage = buf[:n:n]
		p.expected = buf[n : 2*n : 2*n]
		p.invPeriod = buf[2*n:]
		p.hasActive = make([]bool, n)
		p.touched = make([]int, 0, n)
	}
	proc := sys.Processor()
	p.sMin = proc.SMin
	p.reserve = 0
	if proc.SwitchTime > 0 {
		p.reserve = 2 * proc.SwitchTime
	}
	p.basePace = 0
	for i, t := range ts.Tasks {
		p.lastUsage[i] = t.WCET
		p.invPeriod[i] = 1 / t.Period
		p.basePace += t.WCET * p.invPeriod[i]
	}
	switch p.Variant {
	case Full:
		p.analyzer.SetStairCapture(true)
	case Horizon8:
		p.analyzer.SetMaxScan(8)
	case Horizon32:
		p.analyzer.SetMaxScan(32)
	case Rescan:
		p.analyzer.SetFullRescan(true)
	}
}

// OnComplete implements sim.Policy: record the actual usage for the
// pacing heuristic; the no-reclaim ablation additionally pins the
// unused allowance of early finishers as phantom demand.
func (p *LpSHE) OnComplete(j *sim.JobState) {
	i := j.TaskIndex
	p.basePace += (j.Executed - p.lastUsage[i]) * p.invPeriod[i]
	p.lastUsage[i] = j.Executed
	if p.Variant == Full && p.haveL {
		// Harvest the completed job's final executed work into the
		// staircase, then stop crediting: the queue may drain after
		// this completion and the processor idle until the next
		// release. If another job is dispatched instead, SelectSpeed
		// runs at this same instant and re-establishes the credit.
		now := p.sys.Now()
		p.harvest(now)
		p.runJob = nil
		if rem := j.RemainingWCET(); rem > 0 {
			// The job is gone from h entirely: its unused allowance
			// lifts the staircase too (StairCredit verifies the
			// lift applies to every surviving candidate).
			p.analyzer.StairCredit(now, j.AbsDeadline, rem)
			p.credited += rem
		}
	}
	if p.Variant != NoReclaim {
		return
	}
	if rem := j.WCET - j.Executed; rem > 0 {
		p.analyzer.AddPhantom(j.AbsDeadline, rem, p.analyzer.onGrid(&j.Job))
	}
}

// harvest credits the staircase with the running job's executed work
// observed since the last harvest — ground truth from the engine,
// immune to stalls, discrete-level clamps, and wrappers that run the
// job at a speed other than the one this policy returned. With
// runJob nil (idle, or a completed job already harvested by
// OnComplete) there is nothing to credit; the staircase still decays
// at rate 1 through StairBound's −t1 term.
func (p *LpSHE) harvest(now float64) {
	if p.runJob != nil {
		if x := p.runJob.Executed - p.runExec; x > 0 {
			p.analyzer.StairCredit(now, p.runJob.AbsDeadline, x)
			p.runExec = p.runJob.Executed
			p.credited += x
		}
	}
}

// SelectSpeed implements sim.Policy.
func (p *LpSHE) SelectSpeed(j *sim.JobState) float64 {
	p.decided++
	w := j.RemainingWCET()
	if w <= 0 {
		// The job exhausted its worst-case budget (it is about to
		// complete); any positive speed is deadline-safe, so finish
		// it at the floor. The fast-path bound stops crediting for
		// this sliver of execution (plain rate-1 decay, conservative).
		if p.Variant == Full && p.haveL {
			p.harvest(p.sys.Now())
			p.runJob = nil
		}
		p.lastPath, p.lastScanLen = sim.PathUnknown, 0
		return p.sMin
	}
	now := p.sys.Now()
	active := p.sys.ActiveJobs()

	// Speed-transition overhead: every change of the operating point
	// stalls the processor for SwitchTime. Reserve two stalls out of
	// the analyzed slack — one for the switch this decision may
	// trigger and one to fund the recovery switch back to full speed
	// once the slack is spent. A stall consumes wall-clock time at
	// zero progress, i.e. exactly one unit of every deadline's slack
	// per unit of stall, so subtracting 2σ keeps the feasibility
	// invariant argument intact verbatim.
	reserve := p.reserve

	var s float64
	if p.Variant != Greedy {
		s = p.paceFill(now, active)
		// Fast path (Full variant): the sound floor below is at most
		// min(w/(w+L), 1 − L/(b−t)). The staircase gives a sound
		// lower bound lb ≤ L(now), and both floor branches are
		// non-increasing in the slack argument under IEEE
		// arithmetic, so substituting lb can only raise them — when
		// the pacing candidate already clears the smaller of the
		// raised branches, the true sound floor provably cannot
		// bind, and the margin keeps float drift in the
		// fresh-analysis value from ever flipping the comparison the
		// wrong way. The selected speed is bit-identical to what a
		// fresh analysis would produce, so skip the analysis.
		if p.Variant == Full && p.haveL {
			p.harvest(now)
			lb := p.analyzer.StairBound(now)
			lb -= reserve + 1e-9*(1+math.Abs(lb))
			floor := math.Inf(1)
			if lb > 0 {
				floor = w / (w + lb)
				bound := p.sys.NextDecisionBound()
				if gapB := bound - now; !math.IsInf(bound, 1) && gapB > 0 {
					if ev := 1 - lb/gapB; ev < floor {
						floor = ev
					}
				}
			}
			if s >= floor {
				p.fastHits++
				p.runJob, p.runExec = j, j.Executed
				p.lastPath, p.lastScanLen = sim.PathStaircase, 0
				return p.finish(s, w, j, now, reserve)
			}
		}
	}

	slack := p.analyzer.Slack(now, active, p.nextReleaseOf)
	scanned, certified, truncated := p.analyzer.LastScan()
	p.lastScanLen = scanned
	switch {
	case truncated:
		p.lastPath = sim.PathAdaptiveCap
	case certified:
		p.lastPath = sim.PathCertificate
	default:
		p.lastPath = sim.PathFullScan
	}
	if p.Variant == Full {
		p.runJob, p.runExec = j, j.Executed
		p.haveL = true
	}
	slack -= reserve
	if slack < 0 {
		slack = 0
	}

	// Sound floor. Two independently sufficient conditions keep the
	// full-speed feasibility invariant (h(t,d) ≤ d−t for all d)
	// alive until the next scheduling point, where the analysis
	// reruns; the smaller of the two is therefore a sound floor:
	//
	//   greedy: s ≥ w/(w+L) — the job completes within w/s wall
	//   time and (w/s)(1−s) ≤ L, so no deadline's slack is
	//   overdrawn before the completion rescheduling point;
	//
	//   event: s ≥ 1 − L/(b−t) — a release is guaranteed by the
	//   decision bound b (nominal next release plus jitter), the
	//   engine recomputes the speed there, and (b−t)(1−s) ≤ L.
	//
	// The own-deadline floor w/(d−t) is enforced on top because
	// under the event branch the job's deadline may precede its
	// stretched completion.
	greedy := 1.0
	if slack > 0 {
		greedy = w / (w + slack)
	}
	soundMin := greedy
	bound := p.sys.NextDecisionBound()
	if gapB := bound - now; !math.IsInf(bound, 1) && gapB > 0 && slack > 0 {
		event := 1 - slack/gapB
		if event < 0 {
			event = 0
		}
		if event < soundMin {
			soundMin = event
		}
	}

	if p.Variant == Greedy {
		// Ablation: the whole analyzed slack goes to the current
		// job. Sound, but convexity-blind: later jobs find the
		// slack gone and run fast, so the speed trace oscillates.
		s = greedy
	} else if s < soundMin {
		s = soundMin
	}
	return p.finish(s, w, j, now, reserve)
}

// paceFill computes the pacing target above the sound floor, by
// regime:
//
//   - pace — utilization-shaped smoothing: each task counts its
//     *predicted* usage share, estimated from the most recent actual
//     execution time (an active job contributes at least what it has
//     already executed; a worse-than-predicted job simply pushes the
//     floors up later). This is the speed a steadily busy system
//     should hold; convex power strongly prefers it over
//     stretch-then-sprint.
//
//   - fill — W/(nr−t): the speed that just finishes the known
//     backlog W by the next arrival. In drain and idle phases
//     (shallow queue, far next release) this is far below pace and
//     harvests the idle-interval slack.
//
// min(pace, fill) picks the regime; the sound and own-deadline
// floors guarantee hard deadlines regardless of how wrong the pacing
// history turns out.
func (p *LpSHE) paceFill(now float64, active []*sim.JobState) float64 {
	var backlog float64
	pace := p.basePace
	expected, hasActive := p.expected, p.hasActive
	touched := p.touched
	for _, a := range active {
		ti := a.TaskIndex
		backlog += a.RemainingWCET()
		// Expected total usage of the active job: at least what it
		// has already executed, predicted by the last observation.
		e := a.Executed
		if lu := p.lastUsage[ti]; lu > e {
			e = lu
		}
		if !hasActive[ti] {
			hasActive[ti] = true
			expected[ti] = e
			touched = append(touched, ti)
		} else if e > expected[ti] {
			expected[ti] = e
		}
	}
	// Swap each touched task's resting contribution (already inside
	// basePace) for its active one, and reset the scratch marks so the
	// next decision starts clean without an O(n) clear.
	for _, ti := range touched {
		pace += (expected[ti] - p.lastUsage[ti]) * p.invPeriod[ti]
		hasActive[ti] = false
	}
	p.touched = touched[:0]
	fill := 1.0
	nr := p.sys.NextRelease() // earliest possible arrival
	if gap := nr - now; math.IsInf(nr, 1) {
		fill = 0 // no more arrivals: pure drain
	} else if gap > 0 {
		fill = backlog / gap
	}
	if fill < pace {
		return fill
	}
	return pace
}

// finish applies the slack-independent tail of every decision: the
// own-deadline floor.
func (p *LpSHE) finish(s, w float64, j *sim.JobState, now, reserve float64) float64 {
	// Never finish after the job's own deadline (the transition
	// reserve shrinks the usable window under non-zero SwitchTime).
	if win := j.AbsDeadline - now - reserve; win > 0 {
		if floor := w / win; floor > s {
			s = floor
		}
	} else {
		s = 1
	}
	return s
}

// LastDecision implements sim.DecisionExplainer: the provenance of
// the most recent SelectSpeed call, for the decision flight recorder.
func (p *LpSHE) LastDecision() sim.DecisionInfo {
	return sim.DecisionInfo{Path: p.lastPath, ScanLen: p.lastScanLen, Credits: p.credited}
}

// Counters implements sim.Instrumented.
func (p *LpSHE) Counters() map[string]float64 {
	c := p.analyzer.Counters()
	c["decisions"] = p.decided
	c["decision_fast_path"] = p.fastHits
	return c
}
