package server

import (
	"encoding/json"
	"reflect"
	"testing"

	"dvsslack/internal/audit"
	"dvsslack/internal/cpu"
	"dvsslack/internal/sim"
	"dvsslack/internal/workload"
)

// TestRequestFromConfigRejectsUnwireable: a config carrying something
// the wire form cannot express fails conversion, so dvsexp -addr runs
// it in process instead of sending a request that silently drops it.
func TestRequestFromConfigRejectsUnwireable(t *testing.T) {
	plain := func() sim.Config {
		req := quickstartRequest("lpshe")
		cfg, err := req.Config()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	if _, err := RequestFromConfig(plain()); err != nil {
		t.Fatalf("plain config: %v", err)
	}
	n := len(plain().TaskSet.Tasks)
	cases := []struct {
		name string
		edit func(*sim.Config)
	}{
		{"observer", func(c *sim.Config) {
			c.Observer = audit.New(audit.Options{TaskSet: c.TaskSet, Processor: c.Processor})
		}},
		{"fixed priorities", func(c *sim.Config) {
			c.FixedPriorities = make([]int, n)
		}},
		{"activity windows", func(c *sim.Config) {
			c.ActiveWindows = make([][]sim.Window, n)
			c.ActiveWindows[0] = []sim.Window{{Start: 0, End: 40}}
		}},
	}
	for _, tc := range cases {
		cfg := plain()
		tc.edit(&cfg)
		if req, err := RequestFromConfig(cfg); err == nil {
			t.Errorf("%s: converted to %+v, want an error", tc.name, req)
		}
	}
}

// TestProcessorSpecRoundTrip: SpecFromProcessor(Build(spec)) must
// reproduce the processor for every preset and for hand-built specs.
func TestProcessorSpecRoundTrip(t *testing.T) {
	for name, p := range cpu.Presets() {
		p.SwitchTime = 0.01
		p.LeakagePower = 0.1
		spec, err := SpecFromProcessor(p)
		if err != nil {
			t.Fatalf("%s: SpecFromProcessor: %v", name, err)
		}
		rebuilt, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		if rebuilt.Name() != p.Name() {
			t.Errorf("%s: rebuilt name %q != %q", name, rebuilt.Name(), p.Name())
		}
		if got, want := rebuilt.Levels(), p.Levels(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: levels %v != %v", name, got, want)
		}
		for _, s := range []float64{0.2, 0.5, 0.8, 1} {
			if got, want := rebuilt.BusyPower(s), p.BusyPower(s); got != want {
				t.Errorf("%s: BusyPower(%v) = %v, want %v", name, s, got, want)
			}
			if got, want := rebuilt.Clamp(s), p.Clamp(s); got != want {
				t.Errorf("%s: Clamp(%v) = %v, want %v", name, s, got, want)
			}
		}
		if rebuilt.SwitchTime != p.SwitchTime || rebuilt.LeakagePower != p.LeakagePower {
			t.Errorf("%s: overhead knobs did not round-trip", name)
		}
	}
}

// TestProcessorSpecJSONRoundTrip: the wire encoding itself must
// round-trip, since cache keys are computed from it.
func TestProcessorSpecJSONRoundTrip(t *testing.T) {
	spec, err := SpecFromProcessor(cpu.XScale())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back ProcessorSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("spec %+v != decoded %+v", spec, back)
	}
}

// TestWorkloadSpecRoundTrip covers every shipped generator.
func TestWorkloadSpecRoundTrip(t *testing.T) {
	gens := []workload.Generator{
		workload.WorstCase{},
		workload.Uniform{Lo: 0.3, Hi: 0.9, Seed: 11},
		workload.Constant{Frac: 0.4},
		workload.Normal{Mean: 0.5, StdDev: 0.2, Seed: 3},
		workload.Bimodal{LightFrac: 0.2, HeavyFrac: 0.9, PHeavy: 0.25, Seed: 5},
		workload.Sinusoidal{Mean: 0.6, Amp: 0.3, PeriodJobs: 16, Jitter: 0.05, Seed: 9},
	}
	for _, g := range gens {
		spec, err := SpecFromGenerator(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		back, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", g.Name(), err)
		}
		if !reflect.DeepEqual(back, g) {
			t.Errorf("round trip %s: got %#v, want %#v", g.Name(), back, g)
		}
		// Behavioral check: same AET stream.
		for task := 0; task < 3; task++ {
			for idx := 0; idx < 10; idx++ {
				if a, b := g.AET(task, idx, 5), back.AET(task, idx, 5); a != b {
					t.Fatalf("%s: AET(%d,%d) diverged: %v vs %v", g.Name(), task, idx, a, b)
				}
			}
		}
	}
}

// TestWorkloadSpecRejectsBadBounds guards the network-input path.
func TestWorkloadSpecRejectsBadBounds(t *testing.T) {
	bad := []WorkloadSpec{
		{Kind: "uniform", Lo: 0.8, Hi: 0.2},
		{Kind: "uniform", Lo: -0.1, Hi: 0.5},
		{Kind: "uniform", Lo: 0.1, Hi: 1.5},
		{Kind: "zipf"},
	}
	for _, s := range bad {
		if _, err := s.Build(); err == nil {
			t.Errorf("spec %+v accepted, want error", s)
		}
	}
}

// TestResultRoundTrip: wire result <-> engine result.
func TestResultRoundTrip(t *testing.T) {
	req := quickstartRequest("lpshe")
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wire := ResultFromSim(simRes)
	back := wire.Sim()
	if !reflect.DeepEqual(back, simRes) {
		t.Fatalf("round trip lost fields:\n got %+v\nwant %+v", back, simRes)
	}
}
