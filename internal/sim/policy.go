package sim

import (
	"dvsslack/internal/cpu"
	"dvsslack/internal/rtm"
)

// System is the read-only view of the running simulation that a
// Policy may consult. It is valid only during policy callbacks.
type System interface {
	// TaskSet returns the static task set being scheduled.
	TaskSet() *rtm.TaskSet
	// Processor returns the processor configuration.
	Processor() *cpu.Processor
	// Now returns the current simulation time.
	Now() float64
	// ActiveJobs returns every released, incomplete job (including
	// the one currently being dispatched), in no particular order.
	// The returned slice is shared with the engine: read-only,
	// valid only for the duration of the callback.
	ActiveJobs() []*JobState
	// NextRelease returns the earliest *possible* future release
	// time across all tasks (+Inf if none): for jitter-free tasks
	// this is the exact next release; for jittered tasks whose
	// nominal instant has passed it is the current time, since the
	// arrival may happen at any moment. Policies never observe the
	// drawn arrival times themselves.
	NextRelease() float64
	// NextReleaseOf returns the earliest possible next release time
	// of task i, continuing the periodic pattern indefinitely (the
	// simulation horizon does not truncate it, which keeps
	// look-ahead policies conservative near the end of a run).
	NextReleaseOf(task int) float64
	// NextDecisionBound returns the latest instant by which a
	// release — and therefore a fresh scheduling decision — is
	// guaranteed to occur (nominal next release plus jitter,
	// minimized over tasks with releases remaining; +Inf when
	// none). Policies whose deadline argument relies on "the
	// analysis reruns soon" must use this bound, not NextRelease.
	NextDecisionBound() float64
}

// Policy decides the processor speed for the job about to execute.
// The engine calls SelectSpeed at every scheduling point — each job
// release and each job completion — for the earliest-deadline active
// job; the returned speed is clamped to the processor's usable range
// (rounded up to a discrete level when applicable) before use.
//
// Implementations must be deterministic and must guarantee that no
// deadline is missed for any EDF-feasible task set when the clamped
// speed is applied; the test suite fuzzes this property for every
// policy shipped in this module.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Reset re-initializes internal state for a fresh run over sys.
	// It is called once before simulation begins.
	Reset(sys System)
	// SelectSpeed returns the desired speed for job j at time
	// sys.Now().
	SelectSpeed(j *JobState) float64
	// OnRelease notifies the policy that job j has been released.
	OnRelease(j *JobState)
	// OnComplete notifies the policy that job j has completed;
	// j.Executed holds the actual work performed and j.Finish the
	// completion time. It is the last hook to receive j: once the
	// completion hooks return, the engine recycles the struct for a
	// later release, so the policy must drop every reference to j
	// here (see JobState).
	OnComplete(j *JobState)
	// OnAdvance notifies the policy that dt units of wall-clock
	// time have elapsed (busy or idle). Called before the
	// release/completion hooks at the new time.
	OnAdvance(dt float64)
}

// NopHooks provides no-op implementations of the optional Policy
// hooks for embedding in policies that only implement SelectSpeed.
type NopHooks struct{}

// OnRelease implements Policy.
func (NopHooks) OnRelease(*JobState) {}

// OnComplete implements Policy.
func (NopHooks) OnComplete(*JobState) {}

// OnAdvance implements Policy.
func (NopHooks) OnAdvance(float64) {}

// Repacer is an optional interface for policies that place
// *intra-job* power-management points: after dispatching job j at the
// selected speed, the engine asks NextCheck for the absolute time of
// the policy's next mid-job speed-change point and inserts a
// scheduling decision there (in addition to the usual release and
// completion points). Return +Inf for "none". Times at or before the
// current instant are pushed forward by a minimum quantum, so a
// misbehaving Repacer can degrade performance but not livelock the
// engine.
//
// This is the hook for intra-task DVS schemes such as the
// Ishihara-Yasuura two-level emulation of a continuous speed on a
// discrete processor (see internal/dvs.DualLevel).
type Repacer interface {
	NextCheck(j *JobState) float64
}

// Instrumented is an optional interface a Policy may implement to
// expose internal work counters (e.g. slack-analysis scan lengths)
// for the overhead experiments.
type Instrumented interface {
	// Counters returns named counter values accumulated since the
	// last Reset.
	Counters() map[string]float64
}

// DecisionPath classifies how a policy arrived at a speed decision —
// which analysis path produced the number. The taxonomy mirrors the
// lpSHE incremental analyzer (PR 8): a decision is either served from
// the slack staircase without running the analysis at all, stopped
// early by the demand-grid certificate, degraded by the adaptive
// horizon cap, or computed by a full scan.
type DecisionPath uint8

const (
	// PathUnknown: the policy does not classify decisions (or the
	// decision predates any analysis, e.g. zero remaining work).
	PathUnknown DecisionPath = iota
	// PathFullScan: the slack analysis ran to its natural end with no
	// early stop.
	PathFullScan
	// PathCertificate: the analysis stopped early because the demand
	// grid certified that no unscanned deadline could change the
	// reading.
	PathCertificate
	// PathStaircase: the analysis was skipped entirely — the slack
	// staircase lower bound already cleared the pacing floor.
	PathStaircase
	// PathAdaptiveCap: the scan was truncated by the adaptive horizon
	// (or scan budget) and the reading conservatively degraded.
	PathAdaptiveCap
)

// String returns the canonical lower-snake name used in flight
// records, counters, and --explain summaries.
func (p DecisionPath) String() string {
	switch p {
	case PathFullScan:
		return "full_scan"
	case PathCertificate:
		return "certificate"
	case PathStaircase:
		return "staircase"
	case PathAdaptiveCap:
		return "adaptive_cap"
	default:
		return "unknown"
	}
}

// DecisionInfo is the provenance of the most recent SelectSpeed call:
// which path produced the decision, how many deadlines the analysis
// scanned (0 for staircase hits), and the cumulative slack credits the
// policy has harvested since Reset.
type DecisionInfo struct {
	Path DecisionPath
	// ScanLen is the number of deadlines scanned by the analysis for
	// this decision (0 when the analysis was skipped).
	ScanLen int
	// Credits is the total slack credit (executed-work + unused
	// allowance) harvested onto the staircase since Reset, in work
	// units at nominal speed.
	Credits float64
}

// DecisionExplainer is an optional interface a Policy may implement
// to expose per-decision provenance. LastDecision reports on the most
// recent SelectSpeed call and is only valid until the next one; the
// flight recorder snapshots it at each dispatch.
type DecisionExplainer interface {
	LastDecision() DecisionInfo
}

// Observer receives fine-grained engine events, e.g. for trace
// recording. All callbacks are synchronous; observers must not
// mutate engine state.
type Observer interface {
	ObserveRelease(t float64, j *JobState)
	ObserveDispatch(t float64, j *JobState, speed float64)
	// ObserveComplete runs after Policy.OnComplete and is the last
	// callback to receive j: the engine recycles the struct once it
	// returns, so an observer keeps copies of j's fields, never the
	// pointer (see JobState).
	ObserveComplete(t float64, j *JobState, missed bool)
	ObserveIdle(t0, t1 float64)
	ObserveSwitch(t, from, to float64)
}
