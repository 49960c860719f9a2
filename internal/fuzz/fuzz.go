// Package fuzz is the deterministic property-fuzz harness behind
// cmd/dvscheck: it generates randomized but fully reproducible
// scenario documents — task sets, AET distributions, release jitter,
// discrete-level processor models, job overruns up to WCET, and
// speed-transition stalls — runs them through the scenario executor
// with every applicable registered policy under the internal/audit
// oracle, and shrinks any failure to a minimal reproducer document
// that pins its failure with a fingerprint assertion and replays
// byte-identically under `dvsscen run` and `dvscheck -replay`.
//
// Everything is a pure function of the seed: Generate(seed) always
// yields the same document, a document always produces the same
// verdict (the engine, workload generators, and jitter streams are
// themselves deterministic), and verdicts render with sorted keys and
// no map iteration, so a reproducer found on one machine fails the
// same way on another.
//
// Policy applicability follows the hazard classes established by the
// experiment suite (see EXPERIMENTS.md figures F7 and F9): on a
// hazard-free EDF-feasible scenario every registered policy must be
// miss-free, but under release jitter or transition stalls only the
// lpSHE family carries that guarantee — ccEDF and the other
// comparison baselines legitimately miss there, which would drown
// real engine bugs in expected failures. Each generated document
// therefore lists exactly the policies that must survive it.
package fuzz

import (
	"context"
	"fmt"

	"dvsslack/internal/policies"
	"dvsslack/internal/prng"
	"dvsslack/internal/rtm"
	"dvsslack/internal/scenario"
	"dvsslack/internal/wire"
)

// lpSHEFamily is the set of policies that keep the paper's hard
// real-time guarantee under release jitter and transition stalls
// (lpSHE reserves 2·SwitchTime of slack per decision; see
// internal/dvs). Comparison baselines are excluded from hazard
// scenarios because their misses there are expected behavior, not
// bugs.
var lpSHEFamily = []string{"lpshe", "lpshe-greedy", "lpshe-no-reclaim", "lpshe-horizon8", "lpshe-horizon32"}

// Generate derives a scenario document deterministically from seed.
// The document asserts audit_clean: every listed policy must finish
// without an error or a single audit violation.
func Generate(seed uint64) *scenario.Document {
	src := prng.New(prng.Mix64(seed ^ 0xd1f5c4ec5eed))
	doc := &scenario.Document{
		Version:    scenario.Version,
		Name:       fmt.Sprintf("fuzz-%016x", seed),
		Assertions: []scenario.Assertion{{Kind: "audit_clean"}},
	}

	n := 2 + src.Intn(7)
	u := src.Range(0.25, 0.9)
	ts, err := rtm.Generate(rtm.GenConfig{N: n, Utilization: u, Seed: src.Uint64()})
	if err != nil {
		// Unreachable for the parameter ranges above; fail loudly
		// rather than fuzz a half-built scenario.
		panic(fmt.Sprintf("fuzz: Generate(%d): %v", seed, err))
	}

	// Hazard roll: release jitter, transition stalls, or neither.
	// Both shrink the applicable policy list to the lpSHE family.
	hazard := src.Float64()
	jitter := hazard < 0.25
	stall := hazard >= 0.25 && hazard < 0.5

	// Processor model.
	switch src.Intn(4) {
	case 0:
		doc.Processor = wire.ProcessorSpec{SMin: src.Range(0.05, 0.3)}
	case 1:
		k := 2 + src.Intn(7)
		levels := make([]float64, k)
		for i := range levels {
			levels[i] = float64(i+1) / float64(k)
		}
		doc.Processor = wire.ProcessorSpec{Levels: levels}
	case 2:
		doc.Processor = wire.ProcessorSpec{Preset: "xscale"}
	default:
		doc.Processor = wire.ProcessorSpec{SMin: 0.1, LeakagePower: src.Range(0.01, 0.1)}
		if src.Float64() < 0.5 {
			doc.Processor.SleepEnabled = true
			doc.Processor.SleepPower = 0.005
			doc.Processor.WakeEnergy = src.Range(0.1, 0.5)
		}
	}
	if stall {
		doc.Processor.SwitchTime = src.Range(0.02, 0.3)
		doc.Processor.SwitchEnergyCoeff = 0.1
	}
	for _, t := range ts.Tasks {
		task := scenario.TaskSpec{Name: t.Name, WCET: t.WCET, Period: t.Period, Deadline: t.Deadline}
		if jitter {
			task.Jitter = src.Range(0.02, 0.15) * t.Period
		}
		doc.Tasks = append(doc.Tasks, task)
	}
	if jitter {
		doc.JitterSeed = src.Uint64()
	}

	// Workload: the bimodal case models rare job overruns to the
	// full WCET on top of a light common path.
	switch src.Intn(5) {
	case 0:
		lo := src.Range(0.1, 0.5)
		doc.Workload = wire.WorkloadSpec{Kind: "uniform", Lo: lo, Hi: src.Range(lo, 1), Seed: src.Uint64()}
	case 1:
		doc.Workload = wire.WorkloadSpec{Kind: "constant", Frac: src.Range(0.2, 1)}
	case 2:
		doc.Workload = wire.WorkloadSpec{Kind: "normal", Mean: src.Range(0.3, 0.7), StdDev: 0.2, Seed: src.Uint64()}
	case 3:
		doc.Workload = wire.WorkloadSpec{
			Kind: "bimodal", LightFrac: src.Range(0.1, 0.4), HeavyFrac: 1,
			PHeavy: src.Range(0.05, 0.3), Seed: src.Uint64(),
		}
	default:
		doc.Workload = wire.WorkloadSpec{Kind: "worst-case"}
	}

	switch {
	case jitter || stall:
		doc.Policies = append([]string(nil), lpSHEFamily...)
		if stall {
			doc.Policies = append(doc.Policies, "lpshe+guard")
		}
	default:
		doc.Policies = append([]string(nil), policies.Names()...)
		if doc.Processor.LeakagePower > 0 {
			doc.Policies = append(doc.Policies, "lpshe+crit")
		}
		if len(doc.Processor.Levels) > 0 {
			doc.Policies = append(doc.Policies, "lpshe+dual")
		}
	}
	return doc
}

// execute runs a document through the scenario executor. Without a
// cancellable context Execute cannot fail; its per-policy errors land
// in the verdict.
func execute(doc *scenario.Document) *scenario.Verdict {
	v, err := scenario.Execute(context.Background(), doc)
	if err != nil {
		panic(fmt.Sprintf("fuzz: executing %s: %v", doc.Name, err))
	}
	return v
}
