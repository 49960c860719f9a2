package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"dvsslack/internal/audit"
	"dvsslack/internal/obs"
	"dvsslack/internal/policies"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

// SimRequest is the run spec: one policy simulating one task set on
// one processor under one workload. It is the unit of work of dvsd's
// /v1/simulate endpoint and batch job API (as server.SimRequest), and
// every scenario-document policy run is lowered through it, so the
// daemon and the scenario executor build their simulations the same
// way.
type SimRequest struct {
	// TaskSet is the periodic task set (required). The rtm wire
	// format validates on decode, so a decoded request never carries
	// a degenerate task set.
	TaskSet *rtm.TaskSet `json:"task_set"`
	// Policy is a policy spec accepted by internal/policies
	// (required), e.g. "lpshe", "nondvs", "lpshe+dual".
	Policy string `json:"policy"`
	// Processor selects and tunes the CPU model. The zero value is a
	// continuous processor with SMin 0.1.
	Processor ProcessorSpec `json:"processor"`
	// Workload selects the AET generator. The zero value is the
	// worst-case workload.
	Workload WorkloadSpec `json:"workload"`
	// Horizon is the simulation length; zero picks the task set's
	// default horizon (one hyperperiod when computable).
	Horizon float64 `json:"horizon,omitempty"`
	// JitterSeed selects the release-jitter stream for task sets
	// with positive jitter.
	JitterSeed uint64 `json:"jitter_seed,omitempty"`
	// Strict makes the run fail on the first deadline miss.
	Strict bool `json:"strict,omitempty"`
	// Audit attaches the internal/audit oracle to the run: the
	// response's Audited/Violations fields report every invariant
	// breach the auditor detected. Audited runs cost one extra
	// observer callback per scheduling event. Note that Strict aborts
	// on the first miss, which leaves the audit event stream
	// truncated — combine Audit with Strict only when you expect no
	// misses at all.
	Audit bool `json:"audit,omitempty"`
}

// Validate checks the request without running it. It resolves the
// policy spec and builds (then discards) the processor and workload,
// so a nil error means Config will succeed.
func (r *SimRequest) Validate() error {
	_, err := r.Config()
	return err
}

// Config translates the request into a runnable sim.Config with no
// observer attached (Audit is ignored). The returned config holds
// freshly constructed policy, processor, and workload values, so
// concurrent runs of the same request never share mutable state.
func (r *SimRequest) Config() (sim.Config, error) {
	plain := *r
	plain.Audit = false
	cfg, _, err := plain.Lower(nil)
	return cfg, err
}

// Lower is the one spec → sim.Config lowering: a fresh policy,
// processor, and workload, the audit oracle attached when Audit is
// set (returned so the caller can Finish it), and extra — when
// non-nil — asked for one more observer for the constructed policy,
// chained after the auditor. Observers are passive, so what they
// watch never changes the run.
func (r *SimRequest) Lower(extra func(sim.Policy) sim.Observer) (sim.Config, *audit.Auditor, error) {
	if r.TaskSet == nil {
		return sim.Config{}, nil, fmt.Errorf("wire: task_set is required")
	}
	if err := r.TaskSet.Validate(); err != nil {
		return sim.Config{}, nil, err
	}
	if r.Policy == "" {
		return sim.Config{}, nil, fmt.Errorf("wire: policy is required")
	}
	pol, err := policies.New(r.Policy)
	if err != nil {
		return sim.Config{}, nil, err
	}
	proc, err := r.Processor.Build()
	if err != nil {
		return sim.Config{}, nil, err
	}
	gen, err := r.Workload.Build()
	if err != nil {
		return sim.Config{}, nil, err
	}
	if r.Horizon < 0 || math.IsNaN(r.Horizon) || math.IsInf(r.Horizon, 0) {
		return sim.Config{}, nil, fmt.Errorf("wire: invalid horizon %v", r.Horizon)
	}
	cfg := sim.Config{
		TaskSet:         r.TaskSet,
		Processor:       proc,
		Policy:          pol,
		Workload:        gen,
		Horizon:         r.Horizon,
		StrictDeadlines: r.Strict,
		JitterSeed:      r.JitterSeed,
	}
	var aud *audit.Auditor
	if r.Audit {
		aud = audit.New(audit.Options{TaskSet: r.TaskSet, Processor: proc})
		cfg.Observer = aud
	}
	if extra != nil {
		cfg.Observer = obs.Multi(cfg.Observer, extra(pol))
	}
	return cfg, aud, nil
}

// ScenarioKey returns the canonical content hash of a request:
// identical simulation inputs — task set, processor, policy,
// workload, horizon, jitter seed, strictness, auditing — hash
// identically regardless of JSON field order or whitespace in the
// original request body. encoding/json marshals struct fields in
// declaration order, so the serialization is canonical by
// construction.
//
// The key is shared infrastructure: dvsd's result cache indexes by it
// and the dvsfleet coordinator consistent-hashes it onto workers, so
// routing and caching can never disagree. The hash is pinned by a
// golden test (internal/server/scenariokey_test.go): changing the
// canonical form invalidates every deployed cache AND reshuffles
// fleet routing, so it must be a deliberate, versioned decision.
func ScenarioKey(r *SimRequest) (string, error) {
	canon := struct {
		TaskSet    *rtm.TaskSet
		Policy     string
		Processor  ProcessorSpec
		Workload   WorkloadSpec
		Horizon    float64
		JitterSeed uint64
		Strict     bool
		Audit      bool
	}{r.TaskSet, policies.SpecOf(policyDisplayName(r.Policy)), r.Processor,
		r.Workload, r.Horizon, r.JitterSeed, r.Strict, r.Audit}
	if canon.Policy == "" {
		canon.Policy = r.Policy
	}
	b, err := json.Marshal(canon)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// CacheKey is the result cache's index: ScenarioKey as a method.
func (r *SimRequest) CacheKey() (string, error) { return ScenarioKey(r) }

// policyDisplayName resolves a spec to the display name of the policy
// it constructs (empty when the spec is unknown), collapsing aliases
// like "greedy" and "lpshe-greedy" onto one key.
func policyDisplayName(spec string) string {
	p, err := policies.New(spec)
	if err != nil {
		return ""
	}
	return p.Name()
}
