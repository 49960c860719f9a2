package fuzz

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"dvsslack/internal/policies"
	"dvsslack/internal/prng"
	"dvsslack/internal/rtm"
	"dvsslack/internal/scenario"
	"dvsslack/internal/sim"
)

// The differential pass pins the incremental slack analyzer against
// the retained full-rescan oracle (lpshe vs lpshe-rescan) across
// every scenario source the repo has: every scenarios/ document
// (reproducers included), generator-derived documents, and randomized
// task sets with arrival/departure windows. In default
// (exact) mode the two must agree on every engine observable
// bit-for-bit — ==, not a tolerance — because the certificate and the
// fast-path skip are both proven to preserve the readings exactly.

// diffCompare runs one simulation config under the default lpSHE and
// the full-rescan oracle variant and requires identical results.
func diffCompare(t *testing.T, label string, mkCfg func() sim.Config) {
	t.Helper()
	run := func(spec string) sim.Result {
		pol, err := policies.New(spec)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cfg := mkCfg()
		cfg.Policy = pol
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, spec, err)
		}
		return res
	}
	full, rescan := run("lpshe"), run("lpshe-rescan")
	if full.Energy != rescan.Energy ||
		full.BusyEnergy != rescan.BusyEnergy ||
		full.IdleEnergy != rescan.IdleEnergy ||
		full.SwitchEnergy != rescan.SwitchEnergy ||
		full.SpeedTimeIntegral != rescan.SpeedTimeIntegral ||
		full.SpeedSwitches != rescan.SpeedSwitches ||
		full.DeadlineMisses != rescan.DeadlineMisses ||
		full.JobsReleased != rescan.JobsReleased ||
		full.JobsCompleted != rescan.JobsCompleted ||
		full.Decisions != rescan.Decisions {
		t.Errorf("%s: incremental vs rescan diverge:\n  energy %v vs %v\n  integral %v vs %v\n  switches %d vs %d\n  misses %d vs %d\n  decisions %d vs %d",
			label, full.Energy, rescan.Energy,
			full.SpeedTimeIntegral, rescan.SpeedTimeIntegral,
			full.SpeedSwitches, rescan.SpeedSwitches,
			full.DeadlineMisses, rescan.DeadlineMisses,
			full.Decisions, rescan.Decisions)
	}
}

// docTaskSet builds the task set a document describes, as the
// scenario executor does.
func docTaskSet(doc *scenario.Document) *rtm.TaskSet {
	tasks := make([]rtm.Task, len(doc.Tasks))
	for i, t := range doc.Tasks {
		tasks[i] = rtm.Task{Name: t.Name, WCET: t.WCET, Period: t.Period, Deadline: t.Deadline, Jitter: t.Jitter}
	}
	return rtm.NewTaskSet(doc.Name, tasks...)
}

// docConfig lifts a generated (timeline-free) document into a
// runnable sim.Config factory: fresh processor/workload per run, as
// the scenario executor builds them.
func docConfig(t *testing.T, doc *scenario.Document) func() sim.Config {
	t.Helper()
	return func() sim.Config {
		proc, err := doc.Processor.Build()
		if err != nil {
			t.Fatalf("%s: processor: %v", doc.Name, err)
		}
		gen, err := doc.Workload.Build()
		if err != nil {
			t.Fatalf("%s: workload: %v", doc.Name, err)
		}
		return sim.Config{
			TaskSet:    docTaskSet(doc),
			Processor:  proc,
			Workload:   gen,
			JitterSeed: doc.JitterSeed,
		}
	}
}

// TestDifferentialGenerated sweeps generator-derived scenarios —
// discrete levels, leakage, sleep, jitter, stalls, every workload
// kind — under both analyzer modes.
func TestDifferentialGenerated(t *testing.T) {
	for seed := uint64(0); seed < 24; seed++ {
		doc := Generate(seed)
		diffCompare(t, doc.Name, docConfig(t, doc))
	}
}

// TestDifferentialScenarios executes every scenarios/ document twice
// with the policy list pinned to one analyzer mode each and compares
// the per-policy outcomes. Documents bring activity windows, workload
// shaping, overrides, chaos retries, and horizons into the pass.
func TestDifferentialScenarios(t *testing.T) {
	docs, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no scenario documents found: %v", err)
	}
	for _, path := range docs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		runAs := func(spec string) scenario.PolicyRun {
			doc, errs := scenario.Parse(filepath.Base(path), data)
			if len(errs) > 0 {
				t.Fatalf("%s: %v", path, errs[0])
			}
			doc.Policies = []string{spec}
			// The verdict's assertions are about the original policy
			// list; this pass only compares raw outcomes.
			doc.Assertions = nil
			v, err := scenario.Execute(context.Background(), doc)
			if err != nil {
				t.Fatalf("%s/%s: %v", path, spec, err)
			}
			if len(v.Policies) != 1 {
				t.Fatalf("%s/%s: %d policy runs", path, spec, len(v.Policies))
			}
			return v.Policies[0]
		}
		full, rescan := runAs("lpshe"), runAs("lpshe-rescan")
		if full.Err != rescan.Err ||
			full.Energy != rescan.Energy ||
			full.DeadlineMisses != rescan.DeadlineMisses ||
			full.JobsReleased != rescan.JobsReleased ||
			full.JobsCompleted != rescan.JobsCompleted ||
			len(full.Violations) != len(rescan.Violations) {
			t.Errorf("%s: incremental vs rescan diverge: energy %v vs %v, misses %d vs %d, err %q vs %q",
				path, full.Energy, rescan.Energy,
				full.DeadlineMisses, rescan.DeadlineMisses, full.Err, rescan.Err)
		}
	}
}

// TestDifferentialActiveWindows randomizes task arrival/departure
// windows (sim.ActiveWindows) so tasks join and leave mid-run —
// the one dynamic the periodic grid cannot pre-plan, covered by the
// analyzer through the active-job set and next-release map alone.
func TestDifferentialActiveWindows(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		src := prng.New(seed * 0xa5a5)
		n := 2 + int(seed)%5
		ts := rtm.MustGenerate(rtm.DefaultGenConfig(n, 0.4+0.05*float64(seed%6), seed))
		horizon := sim.DefaultHorizon(ts)
		windows := make([][]sim.Window, n)
		for i := range windows {
			if src.Float64() < 0.3 {
				continue // always active
			}
			start := src.Range(0, horizon/2)
			end := start + src.Range(horizon/8, horizon/2)
			windows[i] = []sim.Window{{Start: start, End: end}}
			if src.Float64() < 0.5 {
				s2 := end + src.Range(0, horizon/4)
				windows[i] = append(windows[i], sim.Window{Start: s2, End: s2 + src.Range(horizon/8, horizon/3)})
			}
		}
		doc := Generate(seed) // borrow a generated processor/workload pair
		diffCompare(t, doc.Name+"+windows", func() sim.Config {
			cfg := docConfig(t, doc)()
			cfg.TaskSet = ts
			cfg.ActiveWindows = windows
			cfg.Horizon = horizon
			return cfg
		})
	}
}
