package dvs_test

import (
	"testing"

	"dvsslack/internal/dvs"
	"dvsslack/internal/fuzz"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

// TestFeedbackRescanTwin runs fbEDF against its rescan twin over the
// differential corpus: the scenarios/ documents and generated
// documents, plain, jittered and with activity windows. Every
// sim.Result field but the slack_* scan counters must be ==.
func TestFeedbackRescanTwin(t *testing.T) {
	docs, err := fuzz.TwinCorpus("../../scenarios", 16)
	if err != nil {
		t.Fatal(err)
	}
	rescan := func(p sim.Policy, ts *rtm.TaskSet) { dvs.UseRescanAnalyzer(p.(*dvs.FeedbackEDF), ts) }
	var certified float64
	for _, doc := range docs {
		plain, twin, err := fuzz.Twins(doc, "feedback", rescan)
		if err != nil {
			t.Fatal(err)
		}
		if hits := twin.PolicyCounters["slack_incremental_hits"]; hits != 0 {
			t.Fatalf("%s: the rescan twin certified %v scans", doc.Name, hits)
		}
		if d := fuzz.ResultDiff(plain, twin); d != "" {
			t.Errorf("%s: differs from its rescan twin in %s", doc.Name, d)
		}
		certified += plain.PolicyCounters["slack_incremental_hits"]
	}
	if certified == 0 {
		t.Error("no certified scan across the corpus")
	}
}
