package core

import (
	"math"
	"testing"

	"dvsslack/internal/cpu"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
	"dvsslack/internal/workload"
)

func runLpSHE(t *testing.T, ts *rtm.TaskSet, gen workload.Generator, variant Variant) sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		TaskSet:         ts,
		Processor:       cpu.Continuous(0.1),
		Policy:          NewLpSHEVariant(variant),
		Workload:        gen,
		StrictDeadlines: true,
	})
	if err != nil {
		t.Fatalf("variant %v: %v", variant, err)
	}
	return res
}

func TestLpSHEMeetsDeadlinesQuickstart(t *testing.T) {
	ts := rtm.Quickstart()
	for _, v := range []Variant{Full, Greedy, NoReclaim, Horizon8, Horizon32} {
		res := runLpSHE(t, ts, workload.Uniform{Lo: 0.2, Hi: 1, Seed: 5}, v)
		if res.DeadlineMisses != 0 {
			t.Errorf("variant %v: %d misses", v, res.DeadlineMisses)
		}
	}
}

func TestLpSHESavesEnergyVsWorstCaseSpeed(t *testing.T) {
	ts := rtm.Quickstart()
	res := runLpSHE(t, ts, workload.Uniform{Lo: 0.2, Hi: 1, Seed: 5}, Full)
	// Full speed for the same workload would use WorkDone * 1 busy
	// energy; lpSHE at cubic power must do strictly better.
	if res.BusyEnergy >= res.WorkDone {
		t.Errorf("busy energy %v not below full-speed cost %v", res.BusyEnergy, res.WorkDone)
	}
}

func TestLpSHEWorstCaseWorkloadMatchesStatic(t *testing.T) {
	// With every job consuming its WCET and U = 1, there is no
	// slack: lpSHE must run at full speed throughout.
	ts := rtm.NewTaskSet("x",
		rtm.Task{WCET: 2, Period: 4},
		rtm.Task{WCET: 2, Period: 4},
	)
	res := runLpSHE(t, ts, workload.WorstCase{}, Full)
	if math.Abs(res.AvgSpeed()-1) > 1e-9 {
		t.Errorf("avg speed = %v, want 1 at U=1 worst case", res.AvgSpeed())
	}
}

func TestLpSHEStretchesSingleJob(t *testing.T) {
	// One task C=2, T=10, worst-case jobs: each job should run at
	// ~C/T = 0.2 (clamped by smin 0.1): the static slack is fully
	// converted.
	ts := rtm.NewTaskSet("x", rtm.Task{WCET: 2, Period: 10})
	res := runLpSHE(t, ts, workload.WorstCase{}, Full)
	if res.DeadlineMisses != 0 {
		t.Fatal("missed deadline")
	}
	if math.Abs(res.AvgSpeed()-0.2) > 1e-6 {
		t.Errorf("avg speed = %v, want 0.2", res.AvgSpeed())
	}
	// Jobs complete exactly at their deadlines; no idle time.
	if res.IdleTime > sim.Eps {
		t.Errorf("idle time = %v, want 0", res.IdleTime)
	}
}

func TestLpSHEVariantOrdering(t *testing.T) {
	// The full analysis must not lose to its own ablations, and
	// every variant must beat the non-DVS reference.
	ts := rtm.MustGenerate(rtm.DefaultGenConfig(8, 0.7, 21))
	gen := workload.Uniform{Lo: 0.5, Hi: 1, Seed: 21}
	energies := map[Variant]float64{}
	for _, v := range []Variant{Full, Greedy, NoReclaim, Horizon8, Horizon32} {
		energies[v] = runLpSHE(t, ts, gen, v).Energy
	}
	nonDVS, err := sim.Run(sim.Config{
		TaskSet:   ts,
		Processor: cpu.Continuous(0.1),
		Policy:    nonDVSPolicy{},
		Workload:  gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	for v, e := range energies {
		if e > nonDVS.Energy*1.0001 {
			t.Errorf("variant %v energy %v exceeds non-DVS %v", v, e, nonDVS.Energy)
		}
	}
	slop := 1.02 // ablations may win tiny amounts on individual traces
	if energies[Full] > energies[NoReclaim]*slop {
		t.Errorf("full %v should not lose to no-reclaim %v", energies[Full], energies[NoReclaim])
	}
	if energies[Full] > energies[Horizon8]*slop {
		t.Errorf("full %v should not lose to horizon8 %v", energies[Full], energies[Horizon8])
	}
}

// nonDVSPolicy avoids importing internal/dvs (cycle-free test aid).
type nonDVSPolicy struct{ sim.NopHooks }

func (nonDVSPolicy) Name() string                      { return "nonDVS" }
func (nonDVSPolicy) Reset(sim.System)                  {}
func (nonDVSPolicy) SelectSpeed(*sim.JobState) float64 { return 1 }

// FuzzLpSHENeverMisses is the central property of the paper: for any
// EDF-feasible task set, any workload, any processor (continuous or
// discrete), the slack-analysis policy never misses a deadline.
func FuzzLpSHENeverMisses(f *testing.F) {
	procs := []*cpu.Processor{
		cpu.Continuous(0.1),
		cpu.Continuous(0.3),
		cpu.UniformLevels(4),
		cpu.XScale(),
	}
	variants := []Variant{Full, Greedy, NoReclaim, Horizon8}
	addSeeds(f, 120, 4, 4)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, uRaw, wRaw, pRaw uint8) {
		n := 1 + int(nRaw)%10
		u := 0.15 + 0.85*float64(uRaw)/255
		ts, err := rtm.Generate(rtm.DefaultGenConfig(n, u, seed))
		if err != nil {
			t.Fatalf("seed=%d n=%d u=%v: %v", seed, n, u, err)
		}
		var gen workload.Generator
		switch wRaw % 4 {
		case 0:
			gen = workload.Uniform{Lo: 0.05, Hi: 1, Seed: seed}
		case 1:
			gen = workload.Bimodal{LightFrac: 0.1, HeavyFrac: 1, PHeavy: 0.3, Seed: seed}
		case 2:
			gen = workload.Sinusoidal{Mean: 0.5, Amp: 0.45, Jitter: 0.1, Seed: seed}
		default:
			gen = workload.WorstCase{}
		}
		proc := procs[int(pRaw)%len(procs)]
		v := variants[int(pRaw/4)%len(variants)]
		res, err := sim.Run(sim.Config{
			TaskSet:         ts,
			Processor:       proc,
			Policy:          NewLpSHEVariant(v),
			Workload:        gen,
			StrictDeadlines: true,
		})
		if err != nil || res.DeadlineMisses != 0 {
			t.Errorf("seed=%d n=%d u=%v gen=%s proc=%s variant=%v: err=%v misses=%d",
				seed, n, u, gen.Name(), proc.Name(), v, err, res.DeadlineMisses)
		}
	})
}

func TestLpSHEName(t *testing.T) {
	if NewLpSHE().Name() != "lpSHE" {
		t.Errorf("Name = %q", NewLpSHE().Name())
	}
	if NewLpSHEVariant(Greedy).Name() != "lpSHE-greedy" {
		t.Errorf("Name = %q", NewLpSHEVariant(Greedy).Name())
	}
}

func TestLpSHECountersExposed(t *testing.T) {
	ts := rtm.Quickstart()
	p := NewLpSHE()
	res, err := sim.Run(sim.Config{
		TaskSet:   ts,
		Processor: cpu.Continuous(0.1),
		Policy:    p,
		Workload:  workload.Uniform{Lo: 0.5, Hi: 1, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PolicyCounters == nil {
		t.Fatal("expected instrumented counters")
	}
	if res.PolicyCounters["decisions"] == 0 {
		t.Error("decision counter not populated")
	}
	if res.PolicyCounters["slack_calls"] == 0 {
		t.Error("slack call counter not populated")
	}
}
