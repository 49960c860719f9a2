package fuzz

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dvsslack/internal/scenario"
	"dvsslack/internal/wire"
)

// TestGenerateDeterministic pins the core fuzzing contract: the same
// seed always yields the same document, structurally identical down
// to every field.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("Generate(%#x) is not deterministic:\n%+v\n%+v", seed, a, b)
		}
	}
	if reflect.DeepEqual(Generate(1), Generate(2)) {
		t.Error("distinct seeds produced identical documents")
	}
}

// TestGeneratedDocumentsRoundTrip checks generated documents are
// first-class scenarios: each validates, keeps its DocKey through the
// YAML form reproducers are written in, and replays to the same
// verdict bytes from that form.
func TestGeneratedDocumentsRoundTrip(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		doc := Generate(seed)
		reparsed, errs := scenario.Parse(doc.Name, scenario.MarshalYAML(doc))
		if len(errs) > 0 {
			t.Fatalf("seed %d: generated document does not validate: %v", seed, errs)
		}
		if scenario.DocKey(reparsed) != scenario.DocKey(doc) {
			t.Fatalf("seed %d: YAML round trip changed the document", seed)
		}
		if got, want := execute(reparsed).JSON(), execute(doc).JSON(); !bytes.Equal(got, want) {
			t.Fatalf("seed %d: reparsed document replays differently:\n%s\nvs\n%s", seed, got, want)
		}
	}
}

// TestCampaignClean runs a short campaign: every generated scenario
// must pass the audit for every applicable policy.
func TestCampaignClean(t *testing.T) {
	sum, err := Fuzz(Options{N: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scenarios != 20 || sum.Runs == 0 {
		t.Fatalf("campaign ran %d scenarios / %d runs", sum.Scenarios, sum.Runs)
	}
	for _, f := range sum.Failures {
		t.Errorf("scenario %s failed: %v", f.Scenario, f.Fingerprint)
	}
}

// failingDoc is an EDF-infeasible set (U = 1.2) that must produce
// deadline-miss violations under any policy.
func failingDoc() *scenario.Document {
	return &scenario.Document{
		Version: scenario.Version,
		Name:    "infeasible",
		Tasks: []scenario.TaskSpec{
			{Name: "T1", WCET: 6, Period: 10},
			{Name: "T2", WCET: 6, Period: 10},
			{Name: "T3", WCET: 1, Period: 100},
		},
		Processor:  wire.ProcessorSpec{SMin: 0.1},
		Workload:   wire.WorkloadSpec{Kind: "worst-case"},
		Policies:   []string{"nondvs", "lpshe"},
		Assertions: []scenario.Assertion{{Kind: "audit_clean"}},
	}
}

// TestRunDetectsFailure checks a genuinely broken document fails its
// audit_clean assertion with a stable fingerprint.
func TestRunDetectsFailure(t *testing.T) {
	v := execute(failingDoc())
	if v.Ok {
		t.Fatal("infeasible scenario reported OK")
	}
	fp := v.Fingerprint()
	if len(fp) == 0 {
		t.Fatal("failing verdict has empty fingerprint")
	}
	found := false
	for _, f := range fp {
		if f == "nondvs/deadline-miss" {
			found = true
		}
	}
	if !found {
		t.Errorf("fingerprint %v lacks nondvs/deadline-miss", fp)
	}
}

// TestShrink checks the shrinker reduces a failing document while
// preserving fingerprint overlap, pins the reduced failure with a
// fingerprint assertion that passes, and leaves clean documents alone.
func TestShrink(t *testing.T) {
	doc := failingDoc()
	origFP := execute(doc).Fingerprint()
	min := Shrink(doc, 0)
	v := execute(min)
	if len(v.Fingerprint()) == 0 {
		t.Fatal("shrunk scenario no longer fails")
	}
	if !v.Ok {
		t.Fatalf("shrunk reproducer fails its own fingerprint assertion: %s", v.JSON())
	}
	if len(min.Assertions) != 1 || min.Assertions[0].Kind != "fingerprint" ||
		!reflect.DeepEqual(min.Assertions[0].Expect, v.Fingerprint()) {
		t.Errorf("reproducer assertions %+v, want one fingerprint %v", min.Assertions, v.Fingerprint())
	}
	overlap := false
	set := map[string]bool{}
	for _, f := range origFP {
		set[f] = true
	}
	for _, f := range v.Fingerprint() {
		if set[f] {
			overlap = true
		}
	}
	if !overlap {
		t.Errorf("shrunk fingerprint %v shares nothing with original %v", v.Fingerprint(), origFP)
	}
	if len(min.Policies) != 1 {
		t.Errorf("shrinker kept %d policies, want 1", len(min.Policies))
	}
	// T3 is irrelevant to the overload; the shrinker must drop it.
	if got := len(min.Tasks); got != 2 {
		t.Errorf("shrinker kept %d tasks, want 2", got)
	}
	if min.Name != "infeasible-min" || doc.Name != "infeasible" || len(doc.Tasks) != 3 {
		t.Errorf("shrinking renamed %q -> %q or modified the input (%d tasks)", doc.Name, min.Name, len(doc.Tasks))
	}

	clean := Generate(3)
	if same := Shrink(clean, 0); !reflect.DeepEqual(same, clean) {
		t.Error("shrinking a clean document modified it")
	}
}

// TestCorpusRoundTrip checks a written reproducer survives write →
// parse unchanged and that replaying it is byte-identical across runs.
func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	min := Shrink(failingDoc(), 0)
	path, err := writeReproducer(dir, min, 7, []string{"nondvs/deadline-miss"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, errs := scenario.Parse(path, data)
	if len(errs) > 0 {
		t.Fatalf("written reproducer does not validate: %v", errs)
	}
	if scenario.DocKey(loaded) != scenario.DocKey(min) {
		t.Error("document changed across write/parse")
	}
	v1, v2 := execute(loaded), execute(loaded)
	if !v1.Ok {
		t.Fatalf("written reproducer fails its fingerprint assertion: %s", v1.JSON())
	}
	if !bytes.Equal(v1.JSON(), v2.JSON()) {
		t.Error("replay verdicts differ byte-for-byte across two runs")
	}
}

// TestReplayMismatch checks a reproducer's fingerprint assertion
// fails when the observed fingerprint diverges from it.
func TestReplayMismatch(t *testing.T) {
	doc := failingDoc()
	doc.Assertions = []scenario.Assertion{{Kind: "fingerprint", Expect: []string{}}}
	if execute(doc).Ok {
		t.Fatal("a failing document passed a fingerprint assertion expecting a clean run")
	}
	clean := Generate(5)
	clean.Assertions = []scenario.Assertion{{Kind: "fingerprint", Expect: []string{"lpshe/energy"}}}
	if execute(clean).Ok {
		t.Fatal("a clean document passed a fingerprint assertion expecting a failure")
	}
}

// TestFuzzWritesReproducer checks the reproducer path of a failing
// campaign: Fuzz writes Shrink's document through writeReproducer,
// which must yield a .yaml file that validates (as `dvsscen
// validate` checks it) and replays green, recording its origin.
func TestFuzzWritesReproducer(t *testing.T) {
	// No generated scenario fails (the engine is correct), so drive
	// the reproducer path directly the way Fuzz does.
	dir := t.TempDir()
	min := Shrink(failingDoc(), 0)
	path, err := writeReproducer(dir, min, 0x2a, []string{"lpshe/deadline-miss", "nondvs/deadline-miss"})
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "repro-infeasible-min.yaml"); path != want {
		t.Fatalf("reproducer written to %s, want %s", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc, errs := scenario.Parse(path, data)
	if len(errs) > 0 {
		t.Fatalf("written reproducer does not validate: %v", errs)
	}
	if !strings.Contains(doc.Description, "fuzz seed 0x2a") {
		t.Errorf("reproducer description %q does not record its seed", doc.Description)
	}
	if v := execute(doc); !v.Ok {
		t.Fatalf("written reproducer does not replay: %s", v.JSON())
	}
}
