package core_test

import (
	"testing"

	"dvsslack/internal/core"
	"dvsslack/internal/fuzz"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
)

// TestRescanTwins runs the lpSHE variants that have no full-rescan
// spec of their own against their rescan twins over the differential
// corpus: the scenarios/ documents and generated documents, plain,
// jittered and with activity windows. Every sim.Result field but the
// slack_* scan counters must be ==.
func TestRescanTwins(t *testing.T) {
	docs, err := fuzz.TwinCorpus("../../scenarios", 16)
	if err != nil {
		t.Fatal(err)
	}
	rescan := func(p sim.Policy, ts *rtm.TaskSet) { core.UseRescanAnalyzer(p.(*core.LpSHE), ts) }
	for _, spec := range []string{"lpshe-greedy", "lpshe-no-reclaim"} {
		var certified float64
		for _, doc := range docs {
			plain, twin, err := fuzz.Twins(doc, spec, rescan)
			if err != nil {
				t.Fatal(err)
			}
			if hits := twin.PolicyCounters["slack_incremental_hits"]; hits != 0 {
				t.Fatalf("%s/%s: the rescan twin certified %v scans", doc.Name, spec, hits)
			}
			if d := fuzz.ResultDiff(plain, twin); d != "" {
				t.Errorf("%s/%s: differs from its rescan twin in %s", doc.Name, spec, d)
			}
			certified += plain.PolicyCounters["slack_incremental_hits"]
		}
		if certified == 0 {
			t.Errorf("%s: no certified scan across the corpus", spec)
		}
	}
}
