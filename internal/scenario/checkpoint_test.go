package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dvsslack/internal/audit"
	"dvsslack/internal/policies"
	"dvsslack/internal/sim"
	"dvsslack/internal/snapshot"
)

// TestCheckpointScenarios pins the snapshot round-trip over every
// scenarios/ document: activity windows, workload shaping, overrides,
// jitter, and horizons all travel through a mid-run checkpoint and
// finish bit-identically to the straight-through run. Documents where
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
				checkpointCompareDoc(t, doc, spec)
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

// checkpointCompareDoc mirrors runPolicy's config construction
// exactly, but drives the engine stepwise with a capture/restore at
// the midpoint.
func checkpointCompareDoc(t *testing.T, doc *Document, spec string) {
	t.Helper()
	mkRun := func() (sim.Config, *audit.Auditor) {
		ts := doc.taskSet()
		proc, err := doc.Processor.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		gen, err := doc.Workload.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if sw := newShapedWorkload(doc, gen, ts); sw != nil {
			gen = sw
		}
		pol, err := policies.New(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		aud := audit.New(audit.Options{TaskSet: ts, Processor: proc})
		return sim.Config{
			TaskSet:       ts,
			Processor:     proc,
			Policy:        pol,
			Workload:      gen,
			Horizon:       doc.Horizon,
			Observer:      aud,
			JitterSeed:    doc.JitterSeed,
			ActiveWindows: doc.activeWindows(ts),
		}, aud
	}

	cfg0, aud0 := mkRun()
	e0, err := sim.NewEngine(cfg0)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	total := 0
	for e0.Step() {
		total++
	}
	res0, err0 := e0.Finish()
	rep0 := aud0.Finish(res0)

	cfg1, _ := mkRun()
	e1, err := sim.NewEngine(cfg1)
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	for i := 0; i < total/2 && e1.Step(); i++ {
	}
	key := doc.Name + "/" + spec
	data := snapshot.Capture(key, e1)

	cfg2, aud2 := mkRun()
	e2, err := snapshot.Restore(data, key, cfg2)
	if err != nil {
		t.Fatalf("%s: restore: %v", spec, err)
	}
	for e2.Step() {
	}
	res2, err2 := e2.Finish()
	rep2 := aud2.Finish(res2)

	if (err2 == nil) != (err0 == nil) || (err0 != nil && err2.Error() != err0.Error()) {
		t.Errorf("%s: restored run error %v, straight-through %v", spec, err2, err0)
	}
	if !reflect.DeepEqual(res2, res0) {
		t.Errorf("%s: restored result differs:\n got  %+v\n want %+v", spec, res2, res0)
	}
	if !reflect.DeepEqual(rep2, rep0) {
		t.Errorf("%s: restored audit report differs:\n got  %+v\n want %+v", spec, rep2, rep0)
	}
}
