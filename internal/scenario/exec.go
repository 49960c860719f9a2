package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"dvsslack/internal/audit"
	"dvsslack/internal/resilience"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
	"dvsslack/internal/wire"
)

// ObserverHook supplies an extra sim.Observer for one policy run
// (nil for none). Observers are passive — they only read the state
// the engine hands every observer — so a hook can watch a run (e.g.
// the decision flight recorder behind dvsscen run --explain) without
// changing a single verdict byte; TestExecuteObservedVerdictBytes
// pins that.
type ObserverHook func(spec string, pol sim.Policy) sim.Observer

// defaultMaxAttempts bounds the chaos retry harness when the chaos
// event does not set max_attempts.
const defaultMaxAttempts = 4

// Verdict is the canonical result of executing a scenario. Render it
// with JSON (below) — every producer (dvsscen, dvsd, dvsfleet) emits
// those exact bytes, so verdicts compare with cmp.
type Verdict struct {
	// Schema is the verdict schema version (equals the document
	// schema version).
	Schema int `json:"schema"`
	// Scenario is the document name.
	Scenario string `json:"scenario"`
	// Ok reports whether every assertion (including the implicit
	// policies-ran check) passed.
	Ok bool `json:"ok"`
	// Policies lists one audited run per document policy, in
	// document order.
	Policies []PolicyRun `json:"policies"`
	// Assertions lists each check's outcome, implicit first.
	Assertions []AssertionResult `json:"assertions"`
	// Chaos reports the fault-injection harness when the timeline
	// declared a chaos event.
	Chaos *ChaosVerdict `json:"chaos,omitempty"`
}

// PolicyRun is one policy's audited simulation.
type PolicyRun struct {
	Policy string `json:"policy"`
	// Err is set when the run failed outright (engine error, chaos
	// attempts exhausted); the numeric fields are then zero.
	Err            string            `json:"err,omitempty"`
	DeadlineMisses int               `json:"deadline_misses"`
	Energy         float64           `json:"energy"`
	JobsReleased   int               `json:"jobs_released"`
	JobsCompleted  int               `json:"jobs_completed"`
	Violations     []audit.Violation `json:"violations,omitempty"`
	Truncated      bool              `json:"truncated,omitempty"`
	// Attempts counts harness attempts for this policy: 1 without
	// chaos, possibly more under it.
	Attempts int `json:"attempts"`
}

// AssertionResult is one assertion's outcome.
type AssertionResult struct {
	Kind string `json:"kind"`
	// Policy/Reference echo the assertion's scope when set.
	Policy    string `json:"policy,omitempty"`
	Reference string `json:"reference,omitempty"`
	Ok        bool   `json:"ok"`
	// Detail explains a failure (empty on success).
	Detail string `json:"detail,omitempty"`
}

// ChaosVerdict summarizes the deterministic fault harness.
type ChaosVerdict struct {
	Seed        uint64 `json:"seed"`
	MaxAttempts int    `json:"max_attempts"`
	// Faults counts injected faults by class over the whole run
	// (JSON renders map keys sorted, so this is deterministic).
	Faults map[string]int `json:"faults,omitempty"`
	// Attempts maps each policy to the attempts it consumed.
	Attempts map[string]int `json:"attempts"`
}

// Execute runs the scenario: every listed policy simulates the same
// compiled configuration under a fresh audit oracle, then the
// assertions are evaluated. Per-policy failures land in the verdict
// (so a failing scenario still yields a comparable report); the error
// return is reserved for context cancellation.
func Execute(ctx context.Context, doc *Document) (*Verdict, error) {
	return ExecuteObserved(ctx, doc, nil)
}

// ExecuteObserved is Execute with a per-run observer hook attached to
// every policy simulation (chained after the audit oracle). A nil
// hook is exactly Execute.
func ExecuteObserved(ctx context.Context, doc *Document, hook ObserverHook) (*Verdict, error) {
	v := &Verdict{Schema: Version, Scenario: doc.Name}
	ts := doc.taskSet()
	windows := doc.activeWindows(ts)
	chaosEv := doc.chaosSpec()

	var chaos *resilience.Chaos
	maxAttempts := 1
	if chaosEv != nil {
		maxAttempts = chaosEv.MaxAttempts
		if maxAttempts <= 0 {
			maxAttempts = defaultMaxAttempts
		}
		cfg := resilience.ChaosConfig{
			Seed:   chaosEv.Seed,
			DelayP: chaosEv.PDelay, ErrorP: chaosEv.PError,
			DropP: chaosEv.PDrop, TruncateP: chaosEv.PTruncate,
		}
		var err error
		chaos, err = resilience.NewChaos(cfg)
		if err != nil {
			// Unreachable for validated documents.
			return nil, err
		}
		v.Chaos = &ChaosVerdict{
			Seed:        chaosEv.Seed,
			MaxAttempts: maxAttempts,
			Faults:      map[string]int{},
			Attempts:    map[string]int{},
		}
	}

	for pi, spec := range doc.Policies {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		run := PolicyRun{Policy: spec}
		// The chaos plan index is a pure function of (policy
		// position, attempt), so the fault sequence is identical
		// regardless of where or how often the document runs.
		lostToChaos := false
		for attempt := 0; attempt < maxAttempts; attempt++ {
			run.Attempts = attempt + 1
			if chaos != nil {
				fault, _ := chaos.Plan(uint64(pi*maxAttempts + attempt))
				if fault != resilience.FaultNone {
					v.Chaos.Faults[string(fault)]++
				}
				switch fault {
				case resilience.FaultError, resilience.FaultDrop, resilience.FaultTruncate:
					// The attempt is lost before the simulation
					// completes; retry.
					lostToChaos = true
					continue
				}
				// FaultNone and FaultDelay run to completion (a
				// delay costs wall-clock time, not correctness).
			}
			attempts := attempt + 1
			run = runPolicy(doc, ts, windows, spec, hook)
			run.Attempts = attempts
			lostToChaos = false
			break
		}
		if chaos != nil {
			if lostToChaos {
				run.Err = fmt.Sprintf("chaos: gave up after %d attempts", maxAttempts)
			}
			v.Chaos.Attempts[spec] = run.Attempts
		}
		v.Policies = append(v.Policies, run)
	}

	v.Assertions = evaluate(doc, v)
	v.Ok = true
	for _, a := range v.Assertions {
		if !a.Ok {
			v.Ok = false
		}
	}
	return v, nil
}

// runPolicy executes one audited simulation. The document's run spec
// lowers exactly as a dvsd request does (wire.SimRequest.Lower: fresh
// processor/workload/policy/auditor per run); the document adds only
// its activity windows and timeline-shaped workload.
func runPolicy(doc *Document, ts *rtm.TaskSet, windows [][]sim.Window, spec string, hook ObserverHook) PolicyRun {
	out := PolicyRun{Policy: spec, Attempts: 1}
	req := wire.SimRequest{
		TaskSet:    ts,
		Policy:     spec,
		Processor:  doc.Processor,
		Workload:   doc.Workload,
		Horizon:    doc.Horizon,
		JitterSeed: doc.JitterSeed,
		Audit:      true,
	}
	var extra func(sim.Policy) sim.Observer
	if hook != nil {
		extra = func(pol sim.Policy) sim.Observer { return hook(spec, pol) }
	}
	cfg, aud, err := req.Lower(extra)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	cfg.ActiveWindows = windows
	if sw := newShapedWorkload(doc, cfg.Workload, ts); sw != nil {
		cfg.Workload = sw
	}
	res, err := sim.Run(cfg)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	rep := aud.Finish(res)
	out.DeadlineMisses = res.DeadlineMisses
	out.Energy = res.Energy
	out.JobsReleased = res.JobsReleased
	out.JobsCompleted = res.JobsCompleted
	out.Violations = rep.Violations
	out.Truncated = rep.Truncated
	return out
}

// evaluate runs every assertion against the collected policy runs.
func evaluate(doc *Document, v *Verdict) []AssertionResult {
	byPolicy := map[string]*PolicyRun{}
	for i := range v.Policies {
		byPolicy[v.Policies[i].Policy] = &v.Policies[i]
	}
	scoped := func(policy string) []*PolicyRun {
		if policy == "" {
			runs := make([]*PolicyRun, 0, len(v.Policies))
			for i := range v.Policies {
				runs = append(runs, &v.Policies[i])
			}
			return runs
		}
		if r, ok := byPolicy[policy]; ok {
			return []*PolicyRun{r}
		}
		return nil
	}

	hasFingerprint := false
	for _, a := range doc.Assertions {
		if a.Kind == "fingerprint" {
			hasFingerprint = true
		}
	}

	var out []AssertionResult
	// Implicit check: every policy produced a result. Skipped when a
	// fingerprint assertion governs the run — fingerprints pin the
	// exact failure set, errors included, so known-failing
	// reproducers can assert their failure without tripping this.
	if !hasFingerprint {
		r := AssertionResult{Kind: "policies_ran", Ok: true}
		for _, p := range v.Policies {
			if p.Err != "" {
				r.Ok = false
				r.Detail = appendDetail(r.Detail, fmt.Sprintf("%s: %s", p.Policy, p.Err))
			}
		}
		out = append(out, r)
	}

	for _, a := range doc.Assertions {
		r := AssertionResult{Kind: a.Kind, Policy: a.Policy, Reference: a.Reference, Ok: true}
		switch a.Kind {
		case "no_deadline_misses":
			for _, p := range scoped(a.Policy) {
				if p.DeadlineMisses != 0 {
					r.Ok = false
					r.Detail = appendDetail(r.Detail, fmt.Sprintf("%s missed %d deadlines", p.Policy, p.DeadlineMisses))
				}
			}
		case "max_deadline_misses":
			for _, p := range scoped(a.Policy) {
				if p.DeadlineMisses > a.Count {
					r.Ok = false
					r.Detail = appendDetail(r.Detail, fmt.Sprintf("%s missed %d deadlines (max %d)", p.Policy, p.DeadlineMisses, a.Count))
				}
			}
		case "audit_clean":
			for _, p := range scoped(a.Policy) {
				if n := len(p.Violations); n > 0 || p.Truncated {
					r.Ok = false
					detail := fmt.Sprintf("%s: %d audit violations", p.Policy, n)
					if n > 0 {
						detail += " (first: " + p.Violations[0].Invariant + ")"
					}
					r.Detail = appendDetail(r.Detail, detail)
				}
			}
		case "energy_max":
			if p, ok := byPolicy[a.Policy]; ok && p.Energy > a.Max {
				r.Ok = false
				r.Detail = fmt.Sprintf("%s consumed %.6g (max %.6g)", a.Policy, p.Energy, a.Max)
			}
		case "energy_ratio_max":
			p, pok := byPolicy[a.Policy]
			ref, rok := byPolicy[a.Reference]
			if pok && rok && ref.Energy > 0 {
				if ratio := p.Energy / ref.Energy; ratio > a.Max {
					r.Ok = false
					r.Detail = fmt.Sprintf("%s/%s energy ratio %.6g exceeds %.6g", a.Policy, a.Reference, ratio, a.Max)
				}
			} else if !pok || !rok || ref.Energy == 0 {
				r.Ok = false
				r.Detail = "reference energy unavailable"
			}
		case "min_jobs_completed":
			for _, p := range scoped(a.Policy) {
				if p.JobsCompleted < a.Count {
					r.Ok = false
					r.Detail = appendDetail(r.Detail, fmt.Sprintf("%s completed %d jobs (min %d)", p.Policy, p.JobsCompleted, a.Count))
				}
			}
		case "all_jobs_completed":
			for _, p := range scoped(a.Policy) {
				if p.JobsCompleted != p.JobsReleased {
					r.Ok = false
					r.Detail = appendDetail(r.Detail, fmt.Sprintf("%s completed %d of %d released jobs", p.Policy, p.JobsCompleted, p.JobsReleased))
				}
			}
		case "fingerprint":
			got := v.Fingerprint()
			want := append([]string(nil), a.Expect...)
			sort.Strings(want)
			if !equalStrings(got, want) {
				r.Ok = false
				r.Detail = fmt.Sprintf("fingerprint %v, want %v", got, want)
			}
		case "chaos_recovered":
			for _, p := range v.Policies {
				if p.Err != "" {
					r.Ok = false
					r.Detail = appendDetail(r.Detail, fmt.Sprintf("%s: %s", p.Policy, p.Err))
				}
			}
		}
		out = append(out, r)
	}
	return out
}

func appendDetail(detail, more string) string {
	if detail == "" {
		return more
	}
	return detail + "; " + more
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Fingerprint summarizes the verdict's failures as sorted,
// de-duplicated "policy/invariant" pairs (a run error contributes
// "policy/error"). The fuzz shrinker compares fingerprints to decide
// whether a reduction still fails, and reproducers pin theirs with a
// fingerprint assertion.
func (v *Verdict) Fingerprint() []string {
	seen := map[string]bool{}
	for _, p := range v.Policies {
		if p.Err != "" {
			seen[p.Policy+"/error"] = true
		}
		for _, viol := range p.Violations {
			seen[p.Policy+"/"+viol.Invariant] = true
		}
	}
	fp := make([]string, 0, len(seen))
	for k := range seen {
		fp = append(fp, k)
	}
	sort.Strings(fp)
	return fp
}

// JSON renders the verdict in its canonical byte form: two-space
// indented JSON with a trailing newline. Every producer emits exactly
// these bytes.
func (v *Verdict) JSON() []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		// Verdict contains only marshalable types.
		panic(err)
	}
	return append(b, '\n')
}

// DocJSON renders a document in its canonical JSON form (two-space
// indent, trailing newline); Parse reads it back.
func DocJSON(doc *Document) []byte {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// DocKey returns the canonical routing/cache key of a document: the
// hex SHA-256 of its canonical JSON form. Structurally identical
// documents (whether authored as YAML or JSON) share a key, which is
// what the dvsfleet coordinator hashes onto its worker ring.
func DocKey(doc *Document) string {
	b, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
