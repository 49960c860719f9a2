package fuzz

import (
	"reflect"
	"testing"

	"dvsslack/internal/audit"
	"dvsslack/internal/policies"
	"dvsslack/internal/prng"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

// windowedTaskSet derives a task set with randomized arrival/departure
// windows (the same shape the differential pass uses).
func windowedTaskSet(seed uint64) (*rtm.TaskSet, [][]sim.Window, float64) {
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
	return ts, windows, horizon
}

// The checkpoint pass pins what a job checkpoint relies on across the
// same scenario sources as the differential pass: a paused run is
// stopped at a step boundary and discarded, and a restore re-runs it
// from its request into fresh engine, policy and auditor instances.
// The abandoned run must leave nothing behind (no process-wide cache
// or policy state), so the re-run finishes with bit-identical results
// and audit reports — including scenarios where violations or
// deadline misses are the expected outcome (the scenarios/
// reproducers, which internal/scenario's TestCheckpointScenarios
// covers).

// checkpointCompare runs mk's config straight through under spec,
// then stops a second run at the midpoint and drops it, and requires
// a third run from a fresh config to be indistinguishable from the
// first.
func checkpointCompare(t *testing.T, label, spec string, mk func() sim.Config) {
	t.Helper()
	engine := func() (*sim.Engine, *audit.Auditor) {
		cfg := mk()
		pol, err := policies.New(spec)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, spec, err)
		}
		cfg.Policy = pol
		aud := audit.New(audit.Options{TaskSet: cfg.TaskSet, Processor: cfg.Processor})
		cfg.Observer = aud
		e, err := sim.NewEngine(cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, spec, err)
		}
		return e, aud
	}
	finish := func(e *sim.Engine, aud *audit.Auditor) (sim.Result, string, *audit.Report) {
		res, err := e.Finish()
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		return res, errStr, aud.Finish(res)
	}

	e0, aud0 := engine()
	total := 0
	for e0.Step() {
		total++
	}
	res0, errStr0, rep0 := finish(e0, aud0)

	e1, _ := engine()
	for i := 0; i < total/2 && e1.Step(); i++ {
	}

	e2, aud2 := engine()
	for e2.Step() {
	}
	res2, errStr2, rep2 := finish(e2, aud2)

	if errStr2 != errStr0 {
		t.Errorf("%s/%s: re-run error %q, straight-through %q", label, spec, errStr2, errStr0)
	}
	if !reflect.DeepEqual(res2, res0) {
		t.Errorf("%s/%s: re-run result differs:\n got  %+v\n want %+v", label, spec, res2, res0)
	}
	if !reflect.DeepEqual(rep2, rep0) {
		t.Errorf("%s/%s: re-run audit report differs:\n got  %+v\n want %+v", label, spec, rep2, rep0)
	}
}

// samplePolicies bounds the per-scenario cost: first, middle, and
// last of the applicable list cover the distinct state shapes.
func samplePolicies(specs []string) []string {
	switch len(specs) {
	case 0:
		return nil
	case 1, 2, 3:
		return specs
	}
	return []string{specs[0], specs[len(specs)/2], specs[len(specs)-1]}
}

// TestCheckpointGenerated re-runs generator-derived scenarios after an
// abandoned run, covering jitter, stalls, discrete levels, leakage,
// and sleep.
func TestCheckpointGenerated(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		doc := Generate(seed)
		for _, spec := range samplePolicies(doc.Policies) {
			checkpointCompare(t, doc.Name, spec, docConfig(t, doc))
		}
	}
}

// TestCheckpointActiveWindows re-runs mode-change configurations
// after an abandoned run: the fresh engine's release cursors must
// skip exactly the windows the straight-through run skipped.
func TestCheckpointActiveWindows(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		doc := Generate(seed)
		ts, windows, horizon := windowedTaskSet(seed)
		checkpointCompare(t, doc.Name+"+windows", "lpshe", func() sim.Config {
			cfg := docConfig(t, doc)()
			cfg.TaskSet = ts
			cfg.ActiveWindows = windows
			cfg.Horizon = horizon
			return cfg
		})
	}
}
