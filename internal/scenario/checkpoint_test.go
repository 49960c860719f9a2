package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dvsslack/internal/audit"
	"dvsslack/internal/sim"
)

// TestCheckpointScenarios pins what a job checkpoint relies on over
// every scenarios/ document: a run stopped at a step boundary and
// discarded, as a paused dvsd job's in-flight run is, leaves nothing
// behind, so re-running it from its request finishes bit-identically
// to the straight-through run. Activity windows, workload shaping,
// overrides, jitter and horizons all take part. Documents where
// misses or violations are the expected outcome must reproduce those
// too.
func TestCheckpointScenarios(t *testing.T) {
	docs, err := filepath.Glob("../../scenarios/*.yaml")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no scenario documents found: %v", err)
	}
	for _, path := range docs {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			doc, errs := Parse(filepath.Base(path), data)
			if len(errs) > 0 {
				t.Fatalf("%v", errs[0])
			}
			for _, spec := range samplePolicies(doc.Policies) {
				rerunCompareDoc(t, doc, spec)
			}
		})
	}
}

// samplePolicies bounds per-document cost to three representative
// policies.
func samplePolicies(specs []string) []string {
	if len(specs) <= 3 {
		return specs
	}
	return []string{specs[0], specs[len(specs)/2], specs[len(specs)-1]}
}

// rerunCompareDoc lowers the document for spec exactly as Execute
// does, runs it straight through, then stops a second run halfway
// and drops it, and requires a third run from a fresh lowering to
// match the first.
func rerunCompareDoc(t *testing.T, doc *Document, spec string) {
	t.Helper()
	engine := func() (*sim.Engine, *audit.Auditor) {
		ts := doc.taskSet()
		cfg, aud, err := doc.lower(ts, doc.activeWindows(ts), spec, true, nil)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		e, err := sim.NewEngine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		return e, aud
	}

	e0, aud0 := engine()
	total := 0
	for e0.Step() {
		total++
	}
	res0, err0 := e0.Finish()
	rep0 := aud0.Finish(res0)

	e1, _ := engine()
	for i := 0; i < total/2 && e1.Step(); i++ {
	}

	e2, aud2 := engine()
	for e2.Step() {
	}
	res2, err2 := e2.Finish()
	rep2 := aud2.Finish(res2)

	if (err2 == nil) != (err0 == nil) || (err0 != nil && err2.Error() != err0.Error()) {
		t.Errorf("%s: re-run error %v, straight-through %v", spec, err2, err0)
	}
	if !reflect.DeepEqual(res2, res0) {
		t.Errorf("%s: re-run result differs:\n got  %+v\n want %+v", spec, res2, res0)
	}
	if !reflect.DeepEqual(rep2, rep0) {
		t.Errorf("%s: re-run audit report differs:\n got  %+v\n want %+v", spec, rep2, rep0)
	}
}
