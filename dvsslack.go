// Package dvsslack is a library for energy-aware scheduling of
// periodic hard real-time task sets on variable-voltage processors.
// It reproduces the DATE 2002 paper "A Dynamic Voltage Scaling
// Algorithm for Dynamic-Priority Hard Real-Time Systems Using Slack
// Time Analysis": an EDF scheduler whose per-job execution speed is
// derived from an exact online slack-time analysis (the lpSHE
// algorithm), together with the classical inter-task DVS-EDF
// baselines it was evaluated against, a discrete-event simulator,
// processor/energy models, workload generators, and the full
// benchmark harness that regenerates the paper's tables and figures.
//
// # Quick start
//
//	ts := dvsslack.NewTaskSet("demo",
//	    dvsslack.NewTask("sensor", 1, 4),    // WCET 1, period 4
//	    dvsslack.NewTask("control", 2, 12),
//	)
//	res, err := dvsslack.Simulate(dvsslack.Config{
//	    TaskSet:   ts,
//	    Processor: dvsslack.ContinuousProcessor(0.1),
//	    Policy:    dvsslack.NewLpSHE(),
//	    Workload:  dvsslack.UniformWorkload(0.5, 1, 42),
//	})
//
// res.Energy is the consumed energy (normalized units, full-speed
// busy power = 1); res.DeadlineMisses is guaranteed to be zero for
// every EDF-feasible task set.
//
// The implementation lives in internal/ packages (core, sim, dvs,
// cpu, rtm, ...); this package re-exports the user-facing surface.
package dvsslack

import (
	"dvsslack/internal/analysis"
	"dvsslack/internal/core"
	"dvsslack/internal/cpu"
	"dvsslack/internal/dvs"
	"dvsslack/internal/experiment"
	"dvsslack/internal/opt"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
	"dvsslack/internal/workload"
)

// Task model re-exports.
type (
	// Task is a periodic hard real-time task (WCET, period,
	// optional constrained deadline).
	Task = rtm.Task
	// TaskSet is an ordered collection of Tasks.
	TaskSet = rtm.TaskSet
	// Job is one released task instance.
	Job = rtm.Job
	// GenConfig parameterizes random task-set generation.
	GenConfig = rtm.GenConfig
)

// Simulation re-exports.
type (
	// Config describes one simulation run.
	Config = sim.Config
	// Result aggregates one simulation run.
	Result = sim.Result
	// Policy selects execution speeds at scheduling points.
	Policy = sim.Policy
	// JobState is a released job plus execution progress. A
	// *JobState is valid from its release until its completion hooks
	// return; the engine then reuses the struct for a later release,
	// so a Policy or observer must not keep the pointer past
	// OnComplete/ObserveComplete.
	JobState = sim.JobState
	// System is the policy-facing view of a running simulation.
	System = sim.System
)

// Processor model re-exports.
type (
	// Processor is the variable-voltage CPU model.
	Processor = cpu.Processor
	// PowerModel maps speed to normalized power.
	PowerModel = cpu.PowerModel
)

// WorkloadGenerator produces per-job actual execution times.
type WorkloadGenerator = workload.Generator

// NewTask returns an implicit-deadline task with the given worst-case
// execution time and period.
func NewTask(name string, wcet, period float64) Task { return rtm.NewTask(name, wcet, period) }

// NewTaskSet builds a task set, naming anonymous tasks T1..Tn.
func NewTaskSet(name string, tasks ...Task) *TaskSet { return rtm.NewTaskSet(name, tasks...) }

// GenerateTaskSet produces a random task set (UUniFast utilizations,
// pooled periods).
func GenerateTaskSet(cfg GenConfig) (*TaskSet, error) { return rtm.Generate(cfg) }

// Simulate executes one run and returns its aggregate result.
func Simulate(cfg Config) (Result, error) { return sim.Run(cfg) }

// ContinuousProcessor returns a continuously variable-speed processor
// with minimum speed smin, the cubic power model, and default idle
// power.
func ContinuousProcessor(smin float64) *Processor { return cpu.Continuous(smin) }

// DiscreteProcessor returns a processor restricted to the given speed
// levels (the highest must be 1); requested speeds round up to the
// next level, preserving deadline guarantees.
func DiscreteProcessor(levels ...float64) (*Processor, error) { return cpu.WithLevels(levels...) }

// NewLpSHE returns the paper's slack-time-analysis DVS policy.
func NewLpSHE() Policy { return core.NewLpSHE() }

// Baseline policy constructors.
func NewNonDVS() Policy      { return &dvs.NonDVS{} }
func NewStaticEDF() Policy   { return &dvs.StaticEDF{} }
func NewLppsEDF() Policy     { return &dvs.LppsEDF{} }
func NewCCEDF() Policy       { return &dvs.CCEDF{} }
func NewLAEDF() Policy       { return &dvs.LAEDF{} }
func NewDRA() Policy         { return &dvs.DRA{} }
func NewFeedbackEDF() Policy { return dvs.NewFeedbackEDF() }

// WithOverheadGuard wraps a policy with switch hysteresis for
// processors with non-zero SwitchTime.
func WithOverheadGuard(p Policy) Policy { return dvs.NewOverheadGuard(p) }

// WithDualLevel wraps a policy with the Ishihara-Yasuura two-level
// emulation of continuous speeds on discrete-level processors.
func WithDualLevel(p Policy) Policy { return dvs.NewDualLevel(p) }

// WithCriticalSpeedFloor wraps a policy with the leakage-aware
// critical-speed floor: on processors with static leakage power the
// wrapped policy never stretches below the energy-efficient speed.
func WithCriticalSpeedFloor(p Policy) Policy { return dvs.NewEfficientFloor(p) }

// UniformWorkload returns the standard dynamic workload: each job's
// actual execution time is WCET times a uniform draw from [lo, hi].
func UniformWorkload(lo, hi float64, seed uint64) WorkloadGenerator {
	return workload.Uniform{Lo: lo, Hi: hi, Seed: seed}
}

// EnergyBound returns the clairvoyant constant-speed lower bound on
// energy for the workload over [0, horizon) (see internal/dvs.Bound).
func EnergyBound(ts *TaskSet, proc *Processor, gen WorkloadGenerator, horizon float64) float64 {
	return dvs.Bound(ts, proc, gen, horizon)
}

// OptimalEnergy returns the YDS clairvoyant offline-optimal energy
// for the trace over [0, horizon): the true per-workload floor no
// online policy can beat (see internal/opt).
func OptimalEnergy(ts *TaskSet, proc *Processor, gen WorkloadGenerator, horizon float64) (float64, error) {
	return opt.ForTrace(ts, proc, gen, horizon, horizon)
}

// EDFSchedulable reports whether the task set is schedulable by
// preemptive EDF on a unit-speed processor.
func EDFSchedulable(ts *TaskSet) bool { return analysis.EDFSchedulable(ts) }

// MinConstantSpeed returns the slowest constant speed keeping the
// task set EDF-schedulable in the worst case.
func MinConstantSpeed(ts *TaskSet) float64 { return analysis.MinConstantSpeed(ts) }

// RateMonotonicPriorities returns the RM priority assignment for use
// with Config.FixedPriorities.
func RateMonotonicPriorities(ts *TaskSet) []int { return analysis.RateMonotonicPriorities(ts) }

// RMSchedulable reports fixed-priority schedulability under RM by
// exact response-time analysis.
func RMSchedulable(ts *TaskSet) bool { return analysis.RMSchedulable(ts) }

// Benchmark task sets of the evaluation.
func CNCTaskSet() *TaskSet        { return rtm.CNC() }
func AvionicsTaskSet() *TaskSet   { return rtm.Avionics() }
func VideophoneTaskSet() *TaskSet { return rtm.Videophone() }

// RunExperiment executes one of the paper's table/figure
// reproductions by ID (t1, f3, f4, f5, t2, f6, f7, t3, t4, f8); see
// DESIGN.md §3 and cmd/dvsexp.
func RunExperiment(id string, quick bool) (*experiment.Report, error) {
	return experiment.Run(id, experiment.Options{Quick: quick})
}

// ExperimentIDs lists the available experiment reproductions in
// presentation order.
func ExperimentIDs() []string { return experiment.IDs() }
