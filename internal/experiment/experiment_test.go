package experiment

import (
	"bytes"
	"strings"
	"testing"

	"dvsslack/internal/cpu"
	"dvsslack/internal/rtm"
	"dvsslack/internal/workload"
)

func TestSuiteNamesStable(t *testing.T) {
	want := []string{"nonDVS", "staticEDF", "lppsEDF", "ccEDF", "laEDF", "DRA", "fbEDF", "lpSHE"}
	got := SuiteNames()
	if len(got) != len(want) {
		t.Fatalf("suite = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("suite = %v, want %v", got, want)
		}
	}
}

func TestRunPointNormalization(t *testing.T) {
	pr, err := RunPoint(Point{
		TaskSet:   rtm.Quickstart(),
		Processor: cpu.Continuous(0.1),
		Workload:  workload.Uniform{Lo: 0.5, Hi: 1, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Misses != 0 {
		t.Errorf("misses = %d", pr.Misses)
	}
	if n := pr.Normalized["nonDVS"]; n != 1 {
		t.Errorf("nonDVS normalized = %v, want 1", n)
	}
	for name, n := range pr.Normalized {
		if n <= 0 || n > 1.0001 {
			t.Errorf("%s normalized = %v out of (0, 1]", name, n)
		}
	}
	if pr.Bound <= 0 || pr.Bound > pr.Normalized["lpSHE"]+1e-9 {
		t.Errorf("bound %v should lower-bound lpSHE %v", pr.Bound, pr.Normalized["lpSHE"])
	}
}

func TestRegistryCoversAllIDs(t *testing.T) {
	reg := Registry()
	for _, id := range IDs() {
		if _, ok := reg[id]; !ok {
			t.Errorf("IDs() lists %q but Registry lacks it", id)
		}
	}
	if len(reg) != len(IDs()) {
		t.Errorf("registry has %d entries, IDs lists %d", len(reg), len(IDs()))
	}
	if _, err := Run("nope", Options{}); err == nil {
		t.Error("unknown id should error")
	}
}

// TestAllExperimentsQuick executes every experiment in quick mode and
// checks its report invariants; this is the integration test of the
// whole benchmark harness.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take seconds")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			r, err := Run(id, Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Tables) == 0 {
				t.Error("no tables produced")
			}
			var buf bytes.Buffer
			r.Print(&buf)
			if buf.Len() == 0 {
				t.Error("empty rendering")
			}
			var csv bytes.Buffer
			r.PrintCSV(&csv)
			if !strings.Contains(csv.String(), ",") {
				t.Error("CSV rendering empty")
			}
			for key, v := range r.Values {
				if strings.HasPrefix(key, "misses") && v != 0 {
					t.Errorf("%s: %v deadline misses", key, v)
				}
			}
		})
	}
}

// TestF3Shape asserts the headline result: at high utilization the
// paper's policy beats every baseline, and normalized energies are
// sane everywhere.
func TestF3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many simulations")
	}
	r, err := Fig3EnergyVsUtilization(Options{Quick: true, Seeds: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"0.3", "0.6", "0.9"} {
		lpshe := r.Values["lpSHE/"+u]
		if lpshe <= 0 || lpshe >= 1 {
			t.Errorf("lpSHE at U=%s: %v out of (0,1)", u, lpshe)
		}
		bound := r.Values["bound/"+u]
		if bound > lpshe+1e-9 {
			t.Errorf("bound %v above lpSHE %v at U=%s", bound, lpshe, u)
		}
		for _, base := range []string{"staticEDF", "lppsEDF"} {
			if v := r.Values[base+"/"+u]; v < lpshe-1e-9 {
				t.Errorf("at U=%s %s (%v) beat lpSHE (%v)", u, base, v, lpshe)
			}
		}
	}
	// The headline: strictly best of the whole suite at U=0.9.
	lpshe := r.Values["lpSHE/0.9"]
	for _, base := range []string{"staticEDF", "lppsEDF", "ccEDF", "laEDF", "DRA"} {
		if v := r.Values[base+"/0.9"]; v < lpshe {
			t.Errorf("at U=0.9 %s (%v) beat lpSHE (%v)", base, v, lpshe)
		}
	}
}

// TestT5BoundOrdering asserts the bound hierarchy on every T5 row:
// flat constant-speed bound ≤ YDS optimum ≤ lpSHE (gap ≥ 1).
func TestT5BoundOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs YDS on several traces")
	}
	r, err := Table5OptimalityGap(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for key := range r.Values {
		if i := strings.IndexByte(key, '/'); i > 0 {
			names[key[:i]] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("no T5 rows")
	}
	for name := range names {
		if name == "misses" {
			continue
		}
		flat, yds, lpshe := r.Values[name+"/flat"], r.Values[name+"/yds"], r.Values[name+"/lpshe"]
		if flat > yds+1e-9 {
			t.Errorf("%s: flat %v above YDS %v", name, flat, yds)
		}
		if yds > lpshe+1e-9 {
			t.Errorf("%s: YDS %v above lpSHE %v", name, yds, lpshe)
		}
		if gap := r.Values[name+"/gap"]; gap < 1-1e-9 {
			t.Errorf("%s: gap %v below 1", name, gap)
		}
	}
}

// TestF9GuaranteeUnderJitter asserts the extension's headline: lpSHE
// never misses at any jitter level while keeping its savings.
func TestF9GuaranteeUnderJitter(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many jittered simulations")
	}
	r, err := Fig9JitterRobustness(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for key, v := range r.Values {
		if strings.HasPrefix(key, "misses/") && v != 0 {
			t.Errorf("lpSHE missed %v deadlines at %s", v, key)
		}
		if strings.HasPrefix(key, "lpSHE/") && (v <= 0 || v >= 1) {
			t.Errorf("lpSHE normalized energy %v at %s out of (0,1)", v, key)
		}
	}
}

func TestOptionsSeeds(t *testing.T) {
	if (Options{}).seeds() != 20 {
		t.Error("default seeds should be 20")
	}
	if (Options{Quick: true}).seeds() != 4 {
		t.Error("quick seeds should be 4")
	}
	if (Options{Seeds: 7, Quick: true}).seeds() != 7 {
		t.Error("explicit seeds should win")
	}
}

// TestT3ScanLengthCeiling pins the slack-analysis cost table T3 reports
// as a count, which repeats exactly from run to run: on T3's full
// configuration the average deadlines scanned per Slack call stay
// under a ceiling for fbEDF and lpSHE. Charging each released job once
// in the early-stop certificate brought them from 21.94 and 15.76 to
// 6.25 and 4.56.
func TestT3ScanLengthCeiling(t *testing.T) {
	r, err := Table3Overheads(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for policy, ceiling := range map[string]float64{"fbEDF": 7, "lpSHE": 5} {
		got, ok := r.Values[policy+"/avg_scan_len"]
		if !ok {
			t.Fatalf("T3 reports no avg_scan_len for %s", policy)
		}
		if got > ceiling {
			t.Errorf("%s: T3 avg_scan_len %.4f, ceiling %v", policy, got, ceiling)
		}
	}
}
