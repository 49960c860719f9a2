package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"dvsslack/internal/policies"
	"dvsslack/internal/rtm"
	"dvsslack/internal/server"
	"dvsslack/internal/sim"
)

// countingObserver counts engine events, so the observer wrapper is
// exercised on a run that has an observer.
type countingObserver struct{ n int }

func (c *countingObserver) ObserveRelease(float64, *sim.JobState)           { c.n++ }
func (c *countingObserver) ObserveDispatch(float64, *sim.JobState, float64) { c.n++ }
func (c *countingObserver) ObserveComplete(float64, *sim.JobState, bool)    { c.n++ }
func (c *countingObserver) ObserveIdle(float64, float64)                    { c.n++ }
func (c *countingObserver) ObserveSwitch(float64, float64, float64)         { c.n++ }

// TestWrapperIdentity: the timing wrapper changes no result, for the
// paper's policy, a Repacer (lpshe+dual), and every other spec.
func TestWrapperIdentity(t *testing.T) {
	req := server.SimRequest{
		TaskSet:  rtm.CNC(),
		Workload: server.WorkloadSpec{Kind: "uniform", Lo: 0.3, Hi: 1, Seed: 11},
	}
	specs := []string{"lpshe", "lpshe+dual"}
	for _, name := range policies.Names() {
		specs = append(specs, name, name+"+guard")
	}
	sawRepacer := false
	for _, spec := range specs {
		req.Policy = spec
		for _, observed := range []bool{false, true} {
			plain, err := req.Config()
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			traced, _ := req.Config()
			var po, to countingObserver
			if observed {
				plain.Observer, traced.Observer = &po, &to
			}
			want, err := sim.Run(plain)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			tr := newTracer()
			got, err := tr.simRun(traced)
			if err != nil {
				t.Fatalf("%s traced: %v", spec, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%s (observer %v): traced result differs:\n got %+v\nwant %+v", spec, observed, got, want)
			}
			if po.n != to.n {
				t.Errorf("%s: observer saw %d events traced, %d plain", spec, to.n, po.n)
			}
		}
		p, _ := policies.New(spec)
		w := wrapPolicy(p, &runTimes{})
		for _, c := range []struct {
			name      string
			has, fwds bool
		}{
			{"Repacer", is[sim.Repacer](p), is[sim.Repacer](w)},
			{"Instrumented", is[sim.Instrumented](p), is[sim.Instrumented](w)},
			{"DecisionExplainer", is[sim.DecisionExplainer](p), is[sim.DecisionExplainer](w)},
		} {
			if c.has != c.fwds {
				t.Errorf("%s: policy implements %s = %v, wrapper = %v", spec, c.name, c.has, c.fwds)
			}
		}
		sawRepacer = sawRepacer || is[sim.Repacer](p)
	}
	if !sawRepacer {
		t.Fatal("no Repacer among the specs: the Repacer forwarding path went untested")
	}
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

// TestTamperedReferenceFails feeds every correctness check a reference
// that does not match and expects a failure, and the result line to
// report it with a non-zero exit code.
func TestTamperedReferenceFails(t *testing.T) {
	o := newOutcome()
	checkGrid(o, "0000tampered", []gridPass{{digest: "abcd"}})
	if len(o.mismatches) == 0 {
		t.Error("grid: tampered digest not detected")
	}

	req := server.SimRequest{TaskSet: rtm.Quickstart(), Policy: "lpshe"}
	cfg, _ := req.Config()
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	good := canonResult(server.ResultFromSim(res))
	bad := server.ResultFromSim(res)
	bad.Energy *= 1.0000001
	request := func(int) server.SimRequest { return req }
	o = newOutcome()
	if wrong := checkSimulate(o, nil, request, map[int]digest{1: good}); len(wrong) != 0 || len(o.mismatches) != 0 {
		t.Fatalf("simulate: matching response flagged: %v", o.mismatches)
	}
	o = newOutcome()
	if wrong := checkSimulate(o, nil, request, map[int]digest{1: good, 2: canonResult(bad)}); !wrong[2] || wrong[1] {
		t.Errorf("simulate: tampered response not detected (wrong = %v)", wrong)
	}

	o = newOutcome()
	runs := []server.SimRequest{req}
	cy := cycle{state: server.JobDone, results: 1, digests: outcomeDigests(1, []server.RunOutcome{{Index: 0, Result: &bad}})}
	if b := checkCycles(o, nil, [][]server.SimRequest{runs}, []cycle{cy}); !b[0] {
		t.Error("jobs: tampered restored result not detected")
	}

	var out bytes.Buffer
	if code := emit(&out, o, false); code == 0 {
		t.Error("emit: exit code 0 despite a mismatch")
	}
	if !strings.Contains(out.String(), `"correct":false`) {
		t.Errorf("emit: result line does not report the failure: %s", out.String())
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each passes its own correctness gate and reports every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the grid at full scale")
	}
	// The scenario corpus is read from the checkout root.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("perfbench")
	for _, name := range []string{"grid", "serve-fresh", "fleet-hot", "jobs-resume"} {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				rc := runConfig{seed: 3, seconds: time.Second, trace: traced}
				o, err := workloads[name](rc)
				if err != nil {
					t.Fatalf("traced %v: %v", traced, err)
				}
				if len(o.mismatches) > 0 {
					t.Errorf("traced %v: %v", traced, o.mismatches)
				}
				if o.attempted < 1 || o.failed != 0 {
					t.Errorf("traced %v: attempted %d, failed %d", traced, o.attempted, o.failed)
				}
				if traced {
					for _, m := range []string{"trace.overhead_share", "runtime.alloc_mb", "sim.runs"} {
						if _, ok := o.metrics[m]; !ok {
							t.Errorf("traced: no %s", m)
						}
					}
					continue
				}
				for _, m := range endToEnd {
					v, ok := o.metrics[m.name]
					if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s = %v (present %v), want a positive number", m.name, v, ok)
					}
				}
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, Dur: 100}
	got := selfTime(parent, span{Start: 10, Dur: 30}, span{Start: 20, Dur: 30}, span{Start: 90, Dur: 50})
	if want := time.Duration(100 - 40 - 10); got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
}
