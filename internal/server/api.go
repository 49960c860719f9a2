// Package server implements dvsd, the simulation daemon: an HTTP/JSON
// control plane over the discrete-event DVS simulator.
//
// The daemon accepts single simulation requests (answered
// synchronously) and batch experiment requests (answered through an
// async job API with SSE progress), executes them on a bounded worker
// pool, memoizes results in an LRU cache keyed by a canonical request
// hash, and exposes operational metrics. Everything is stdlib-only.
//
// See docs/api.md for the wire protocol.
package server

import (
	"fmt"

	"dvsslack/internal/audit"
	"dvsslack/internal/cpu"
	"dvsslack/internal/policies"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
	"dvsslack/internal/wire"
	"dvsslack/internal/workload"
)

// SimRequest describes one simulation run in wire form: the unit of
// work of both the synchronous /v1/simulate endpoint and the async
// batch job API. It is an alias of wire.SimRequest, the run spec the
// scenario executor lowers through as well (see ProcessorSpec for why
// the wire types live in internal/wire).
type SimRequest = wire.SimRequest

// ScenarioKey returns the canonical content hash of a request (see
// wire.ScenarioKey): the result cache's index and the dvsfleet
// routing key.
func ScenarioKey(r *SimRequest) (string, error) { return wire.ScenarioKey(r) }

// RequestFromConfig inverts Config for configurations assembled from
// the shipped building blocks (registered policies, cubic/alpha/table
// processors, shipped workload generators). It is how cmd/dvsexp
// -addr converts the experiment harness's in-memory configurations
// into daemon requests; configurations with no wire form — custom
// policies, observers, fixed-priority overrides, activity windows —
// return an error and the caller falls back to in-process execution.
func RequestFromConfig(cfg sim.Config) (SimRequest, error) {
	if cfg.Observer != nil {
		return SimRequest{}, fmt.Errorf("server: config with an Observer has no wire form")
	}
	if len(cfg.FixedPriorities) != 0 {
		return SimRequest{}, fmt.Errorf("server: fixed-priority config has no wire form")
	}
	if len(cfg.ActiveWindows) != 0 {
		return SimRequest{}, fmt.Errorf("server: config with activity windows has no wire form")
	}
	if cfg.Policy == nil {
		return SimRequest{}, fmt.Errorf("server: config has no policy")
	}
	spec := policies.SpecOf(cfg.Policy.Name())
	if spec == "" {
		return SimRequest{}, fmt.Errorf("server: policy %q has no wire form", cfg.Policy.Name())
	}
	if cfg.Processor == nil {
		return SimRequest{}, fmt.Errorf("server: config has no processor")
	}
	proc, err := SpecFromProcessor(cfg.Processor)
	if err != nil {
		return SimRequest{}, err
	}
	gen, err := SpecFromGenerator(cfg.Workload)
	if err != nil {
		return SimRequest{}, err
	}
	return SimRequest{
		TaskSet:    cfg.TaskSet,
		Policy:     spec,
		Processor:  proc,
		Workload:   gen,
		Horizon:    cfg.Horizon,
		JitterSeed: cfg.JitterSeed,
		Strict:     cfg.StrictDeadlines,
	}, nil
}

// ProcessorSpec is the wire form of a cpu.Processor. It is an alias
// of wire.ProcessorSpec — the type moved to internal/wire so that
// packages the server builds on (notably internal/scenario, executed
// behind /v1/scenario) can share it without an import cycle. The
// JSON shape, and therefore the canonical ScenarioKey hash, is
// unchanged.
type ProcessorSpec = wire.ProcessorSpec

// SpecFromProcessor inverts ProcessorSpec.Build for the processor
// values the library constructs (cubic, alpha, and table power
// models). It is what lets the experiment harness ship its in-memory
// processor configurations to a remote daemon.
func SpecFromProcessor(p *cpu.Processor) (ProcessorSpec, error) {
	return wire.SpecFromProcessor(p)
}

// WorkloadSpec is the wire form of a workload.Generator (an alias of
// wire.WorkloadSpec; see ProcessorSpec).
type WorkloadSpec = wire.WorkloadSpec

// SpecFromGenerator inverts WorkloadSpec.Build for the shipped
// generator types.
func SpecFromGenerator(g workload.Generator) (WorkloadSpec, error) {
	return wire.SpecFromGenerator(g)
}

// SimResult is the wire form of a sim.Result, plus serving metadata.
// It is also the schema cmd/dvssim -json emits, so CLI output and API
// responses are interchangeable.
type SimResult struct {
	Policy string `json:"policy"`

	Time         float64 `json:"time"`
	Energy       float64 `json:"energy"`
	BusyEnergy   float64 `json:"busy_energy"`
	IdleEnergy   float64 `json:"idle_energy"`
	SwitchEnergy float64 `json:"switch_energy"`

	JobsReleased   int `json:"jobs_released"`
	JobsCompleted  int `json:"jobs_completed"`
	DeadlineMisses int `json:"deadline_misses"`
	SpeedSwitches  int `json:"speed_switches"`
	Preemptions    int `json:"preemptions"`
	Decisions      int `json:"decisions"`

	IdleTime  float64 `json:"idle_time"`
	Sleeps    int     `json:"sleeps,omitempty"`
	SleepTime float64 `json:"sleep_time,omitempty"`
	WorkDone  float64 `json:"work_done"`

	PolicyCounters map[string]float64 `json:"policy_counters,omitempty"`

	// Audited reports the run executed under the internal/audit
	// oracle (SimRequest.Audit); Violations then lists every
	// invariant breach in detection order, and AuditTruncated
	// signals the violation cap was hit. An audited result with no
	// violations is independently verified, not merely self-reported.
	Audited        bool              `json:"audited,omitempty"`
	Violations     []audit.Violation `json:"violations,omitempty"`
	AuditTruncated bool              `json:"audit_truncated,omitempty"`

	// Cached reports whether the result was served from the result
	// cache instead of a fresh simulation.
	Cached bool `json:"cached,omitempty"`
	// WallNanos is the wall-clock duration of the simulation that
	// produced this result (zero for cache hits).
	WallNanos int64 `json:"wall_ns,omitempty"`
}

// ResultFromSim converts an engine result to wire form.
func ResultFromSim(r sim.Result) SimResult {
	return SimResult{
		Policy:         r.Policy,
		Time:           r.Time,
		Energy:         r.Energy,
		BusyEnergy:     r.BusyEnergy,
		IdleEnergy:     r.IdleEnergy,
		SwitchEnergy:   r.SwitchEnergy,
		JobsReleased:   r.JobsReleased,
		JobsCompleted:  r.JobsCompleted,
		DeadlineMisses: r.DeadlineMisses,
		SpeedSwitches:  r.SpeedSwitches,
		Preemptions:    r.Preemptions,
		Decisions:      r.Decisions,
		IdleTime:       r.IdleTime,
		Sleeps:         r.Sleeps,
		SleepTime:      r.SleepTime,
		WorkDone:       r.WorkDone,
		PolicyCounters: r.PolicyCounters,
	}
}

// Sim converts back to the engine result type (for callers like the
// remote experiment harness that feed daemon results into local
// aggregation). SpeedTimeIntegral, an internal consistency shadow of
// WorkDone, is restored from WorkDone.
func (r SimResult) Sim() sim.Result {
	return sim.Result{
		Policy:            r.Policy,
		Time:              r.Time,
		Energy:            r.Energy,
		BusyEnergy:        r.BusyEnergy,
		IdleEnergy:        r.IdleEnergy,
		SwitchEnergy:      r.SwitchEnergy,
		JobsReleased:      r.JobsReleased,
		JobsCompleted:     r.JobsCompleted,
		DeadlineMisses:    r.DeadlineMisses,
		SpeedSwitches:     r.SpeedSwitches,
		Preemptions:       r.Preemptions,
		Decisions:         r.Decisions,
		IdleTime:          r.IdleTime,
		Sleeps:            r.Sleeps,
		SleepTime:         r.SleepTime,
		WorkDone:          r.WorkDone,
		SpeedTimeIntegral: r.WorkDone,
		PolicyCounters:    r.PolicyCounters,
	}
}

// BatchRequest submits a set of runs as one async job. Runs are
// executed in submission order across the worker pool; per-run
// results preserve submission order. A Sweep, when present, is
// expanded server-side and appended after Runs.
type BatchRequest struct {
	// Name labels the job in listings and logs.
	Name string `json:"name,omitempty"`
	// Runs is the explicit run list.
	Runs []SimRequest `json:"runs,omitempty"`
	// Sweep, when non-nil, generates a (utilization × policy × seed)
	// grid of runs over synthetic task sets.
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// Expand resolves the batch into its validated runs: Runs followed by
// the expanded Sweep, at least one and at most MaxBatchRuns.
func (b *BatchRequest) Expand() ([]SimRequest, error) {
	runs := b.Runs
	if b.Sweep != nil {
		expanded, err := b.Sweep.Expand()
		if err != nil {
			return nil, err
		}
		runs = append(runs, expanded...)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("server: job has no runs")
	}
	if len(runs) > MaxBatchRuns {
		return nil, fmt.Errorf("server: job has %d runs, limit %d", len(runs), MaxBatchRuns)
	}
	for i := range runs {
		if err := runs[i].Validate(); err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
	}
	return runs, nil
}

// SweepSpec is a compact server-side experiment description: for each
// utilization in U, each policy, and each of Seeds replications, a
// synthetic task set of N tasks is generated (rtm.Generate with the
// replication seed) and simulated.
type SweepSpec struct {
	N        int       `json:"n"`
	U        []float64 `json:"u"`
	Policies []string  `json:"policies"`
	Seeds    int       `json:"seeds"`
	Seed0    uint64    `json:"seed0,omitempty"`
	// Periods optionally restricts the generator's period pool
	// (rtm.DefaultPeriods when empty), e.g. to bound hyperperiods.
	Periods   []float64     `json:"periods,omitempty"`
	Processor ProcessorSpec `json:"processor,omitempty"`
	Workload  WorkloadSpec  `json:"workload,omitempty"`
	// Horizon truncates each run (zero = one hyperperiod). Beware
	// that truncating a look-ahead policy's job stream mid-
	// hyperperiod can cost deadlines that the full stream would keep
	// (the policy defers work expecting releases that never come).
	Horizon float64 `json:"horizon,omitempty"`
}

// Expand materializes the sweep grid into concrete runs. The
// workload spec's seed is replaced per replication so every policy
// sees the identical trace within a replication and different traces
// across replications — the measurement discipline of the experiment
// harness.
func (s *SweepSpec) Expand() ([]SimRequest, error) {
	if s.N <= 0 {
		return nil, fmt.Errorf("server: sweep n must be positive, got %d", s.N)
	}
	if len(s.U) == 0 || len(s.Policies) == 0 {
		return nil, fmt.Errorf("server: sweep needs at least one utilization and one policy")
	}
	seeds := s.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	if total := len(s.U) * len(s.Policies) * seeds; total > MaxBatchRuns {
		return nil, fmt.Errorf("server: sweep expands to %d runs, limit %d", total, MaxBatchRuns)
	}
	var runs []SimRequest
	for _, u := range s.U {
		for rep := 0; rep < seeds; rep++ {
			seed := s.Seed0 + uint64(rep)*0x9e37 + 17
			gcfg := rtm.DefaultGenConfig(s.N, u, seed)
			gcfg.Periods = s.Periods
			ts, err := rtm.Generate(gcfg)
			if err != nil {
				return nil, err
			}
			wl := s.Workload
			if wl.Kind != "" && wl.Kind != "worst-case" && wl.Kind != "constant" {
				wl.Seed = seed
			}
			for _, pol := range s.Policies {
				runs = append(runs, SimRequest{
					TaskSet:   ts,
					Policy:    pol,
					Processor: s.Processor,
					Workload:  wl,
					Horizon:   s.Horizon,
				})
			}
		}
	}
	return runs, nil
}

// MaxBatchRuns bounds the number of runs a single job may hold.
const MaxBatchRuns = 100000

// JobInfo is the wire form of an async job's status.
type JobInfo struct {
	ID      string `json:"id"`
	Name    string `json:"name,omitempty"`
	State   string `json:"state"` // queued | running | done | failed | cancelled | checkpointed
	Total   int    `json:"total"`
	Done    int    `json:"done"`
	Failed  int    `json:"failed"`
	Created string `json:"created"`
	Started string `json:"started,omitempty"`
	Ended   string `json:"ended,omitempty"`
	// Error carries the first run error for failed jobs.
	Error string `json:"error,omitempty"`
	// Results holds per-run outcomes (submission order) once the job
	// is done; GET /v1/jobs/{id}?results=1 includes them.
	Results []RunOutcome `json:"results,omitempty"`
}

// RunOutcome is one run's terminal state within a job.
type RunOutcome struct {
	Index  int        `json:"index"`
	Result *SimResult `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
}

// ErrorBody is the JSON error envelope every non-2xx response uses.
type ErrorBody struct {
	Error string `json:"error"`
	// Errors carries the full list when a request fails validation
	// with more than one problem (scenario documents report every
	// error, not just the first). Error still holds a one-line
	// summary so single-error consumers keep working.
	Errors []string `json:"errors,omitempty"`
}
