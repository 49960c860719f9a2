package fuzz

import (
	"dvsslack/internal/scenario"
	"dvsslack/internal/wire"
)

// The shrinker reduces a failing document to a minimal reproducer.
// Minimality here is greedy, not global: each pass removes one source
// of complexity — extra policies, extra tasks, jitter, stalls, the
// workload distribution, the processor model — and keeps the
// reduction only if the re-run still reproduces part of the original
// failure fingerprint. Passes repeat to a fixpoint under a run
// budget, so shrinking is deterministic and bounded even when the
// failure is flickery across reductions.

// DefaultShrinkBudget bounds the number of candidate runs one Shrink
// call may spend.
const DefaultShrinkBudget = 80

// clone deep-copies the parts of a document the shrinker edits, so
// reductions never alias the original's task or policy slices.
func clone(doc *scenario.Document) *scenario.Document {
	out := *doc
	out.Tasks = append([]scenario.TaskSpec(nil), doc.Tasks...)
	out.Policies = append([]string(nil), doc.Policies...)
	return &out
}

// Shrink reduces a generated document (one without a timeline) to a
// smaller one whose failure overlaps the original's fingerprint. The
// reproducer is named after the original with a "-min" suffix and
// asserts exactly its own failure fingerprint, so it replays green
// under `dvsscen run` while pinning what failed. A document that does
// not fail is returned unchanged. budget <= 0 selects
// DefaultShrinkBudget.
func Shrink(doc *scenario.Document, budget int) *scenario.Document {
	if budget <= 0 {
		budget = DefaultShrinkBudget
	}
	best := clone(doc)
	bestRes := execute(best)
	orig := map[string]bool{}
	for _, f := range bestRes.Fingerprint() {
		orig[f] = true
	}
	if len(orig) == 0 {
		return best
	}
	// try re-runs a candidate and adopts it when its failure still
	// overlaps the original fingerprint.
	try := func(cand *scenario.Document) bool {
		if budget <= 0 {
			return false
		}
		budget--
		r := execute(cand)
		for _, f := range r.Fingerprint() {
			if orig[f] {
				best, bestRes = cand, r
				return true
			}
		}
		return false
	}

	for pass := 0; pass < 4; pass++ {
		changed := false

		// Single policy: find one policy that fails alone.
		if len(best.Policies) > 1 {
			for _, p := range bestRes.Policies {
				if p.Err == "" && len(p.Violations) == 0 && !p.Truncated {
					continue
				}
				cand := clone(best)
				cand.Policies = []string{p.Policy}
				if try(cand) {
					changed = true
					break
				}
			}
		}

		// Drop tasks one at a time (never below one task).
		for i := 0; len(best.Tasks) > 1 && i < len(best.Tasks); {
			cand := clone(best)
			cand.Tasks = append(cand.Tasks[:i], cand.Tasks[i+1:]...)
			if try(cand) {
				changed = true
				// best shrank; retry the same index.
			} else {
				i++
			}
		}

		// Remove hazards and model complexity, one knob at a time.
		jittered := false
		for _, t := range best.Tasks {
			jittered = jittered || t.Jitter > 0
		}
		if jittered {
			cand := clone(best)
			for i := range cand.Tasks {
				cand.Tasks[i].Jitter = 0
			}
			cand.JitterSeed = 0
			changed = try(cand) || changed
		}
		if best.Processor.SwitchTime != 0 || best.Processor.SwitchEnergyCoeff != 0 {
			cand := clone(best)
			cand.Processor.SwitchTime = 0
			cand.Processor.SwitchEnergyCoeff = 0
			changed = try(cand) || changed
		}
		if best.Workload.Kind != "worst-case" {
			cand := clone(best)
			cand.Workload = wire.WorkloadSpec{Kind: "worst-case"}
			changed = try(cand) || changed
		}
		if !plainProcessor(best.Processor) {
			cand := clone(best)
			cand.Processor = wire.ProcessorSpec{SMin: 0.1}
			changed = try(cand) || changed
		}

		if !changed || budget <= 0 {
			break
		}
	}
	best.Name = doc.Name + "-min"
	best.Assertions = []scenario.Assertion{{Kind: "fingerprint", Expect: bestRes.Fingerprint()}}
	return best
}

// plainProcessor reports whether the spec already is the simplest
// model the shrinker targets: a bare continuous CPU with default
// power and no overheads.
func plainProcessor(s wire.ProcessorSpec) bool {
	return s.Preset == "" && len(s.Levels) == 0 && s.Model == "" &&
		s.IdlePower == nil && s.SwitchTime == 0 && s.SwitchEnergyCoeff == 0 &&
		s.LeakagePower == 0 && !s.SleepEnabled && s.SMin == 0.1
}
