package dvsslack

// Benchmark harness: one testing.B benchmark per table and figure of
// the evaluation (DESIGN.md §3). Each benchmark regenerates its
// experiment at reduced replication (the benchmarks measure the cost
// of the reproduction pipeline; `cmd/dvsexp -exp <id>` produces the
// full-scale numbers recorded in EXPERIMENTS.md). Additional
// micro-benchmarks cover the hot paths: the simulation engine and the
// slack-time analysis.
//
// Run with:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFig3 -benchtime=1x   # one full regeneration

import (
	"io"
	"testing"

	"dvsslack/internal/core"
	"dvsslack/internal/cpu"
	"dvsslack/internal/dvs"
	"dvsslack/internal/experiment"
	"dvsslack/internal/obs"
	"dvsslack/internal/opt"
	"dvsslack/internal/policies"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
	"dvsslack/internal/workload"
)

// benchOpts keeps the per-iteration cost of the experiment
// benchmarks bounded; the shape of each figure is preserved.
var benchOpts = experiment.Options{Quick: true, Seeds: 2}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiment.Run(id, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		// Render to io.Discard so formatting cost is included and
		// the compiler cannot elide the work.
		r.Print(io.Discard)
	}
}

// BenchmarkTable1ProcessorModels regenerates T1 (processor models).
func BenchmarkTable1ProcessorModels(b *testing.B) { benchExperiment(b, "t1") }

// BenchmarkFig3EnergyVsUtilization regenerates F3 (normalized energy
// vs worst-case utilization, all policies).
func BenchmarkFig3EnergyVsUtilization(b *testing.B) { benchExperiment(b, "f3") }

// BenchmarkFig4EnergyVsBCETRatio regenerates F4 (normalized energy
// vs BCET/WCET ratio).
func BenchmarkFig4EnergyVsBCETRatio(b *testing.B) { benchExperiment(b, "f4") }

// BenchmarkFig5EnergyVsTaskCount regenerates F5 (normalized energy
// vs task-set size).
func BenchmarkFig5EnergyVsTaskCount(b *testing.B) { benchExperiment(b, "f5") }

// BenchmarkTable2Benchmarks regenerates T2 (embedded benchmark task
// sets: CNC, avionics, videophone).
func BenchmarkTable2Benchmarks(b *testing.B) { benchExperiment(b, "t2") }

// BenchmarkFig6DiscreteLevels regenerates F6 (discrete speed levels
// vs continuous).
func BenchmarkFig6DiscreteLevels(b *testing.B) { benchExperiment(b, "f6") }

// BenchmarkFig7TransitionOverhead regenerates F7 (speed-transition
// overhead sensitivity).
func BenchmarkFig7TransitionOverhead(b *testing.B) { benchExperiment(b, "f7") }

// BenchmarkTable3Overheads regenerates T3 (scheduling overheads per
// policy).
func BenchmarkTable3Overheads(b *testing.B) { benchExperiment(b, "t3") }

// BenchmarkTable4DeadlineFuzz regenerates T4 (deadline-miss fuzz).
func BenchmarkTable4DeadlineFuzz(b *testing.B) { benchExperiment(b, "t4") }

// BenchmarkFig8Ablation regenerates F8 (slack-analysis ablation).
func BenchmarkFig8Ablation(b *testing.B) { benchExperiment(b, "f8") }

// BenchmarkTable5OptimalityGap regenerates T5 (gap to the YDS
// clairvoyant optimum).
func BenchmarkTable5OptimalityGap(b *testing.B) { benchExperiment(b, "t5") }

// BenchmarkFig9JitterRobustness regenerates F9 (release-jitter
// robustness extension).
func BenchmarkFig9JitterRobustness(b *testing.B) { benchExperiment(b, "f9") }

// BenchmarkFig10WorkloadShapes regenerates F10 (workload-shape
// sensitivity extension).
func BenchmarkFig10WorkloadShapes(b *testing.B) { benchExperiment(b, "f10") }

// BenchmarkFig11Leakage regenerates F11 (leakage power and the
// critical-speed floor extension).
func BenchmarkFig11Leakage(b *testing.B) { benchExperiment(b, "f11") }

// BenchmarkYDSOptimal measures the offline-optimal computation on a
// one-hyperperiod trace (the T5 oracle cost).
func BenchmarkYDSOptimal(b *testing.B) {
	cfg := rtm.DefaultGenConfig(6, 0.7, 3)
	cfg.Periods = []float64{50, 100, 125, 200, 250, 500, 1000}
	ts := rtm.MustGenerate(cfg)
	gen := workload.Uniform{Lo: 0.5, Hi: 1, Seed: 3}
	proc := cpu.Continuous(0.1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := opt.ForTrace(ts, proc, gen, 1000, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkEngineNonDVS measures raw simulator throughput: one
// hyperperiod of an 8-task set at full speed (~minimal policy cost).
func BenchmarkEngineNonDVS(b *testing.B) {
	ts := rtm.MustGenerate(rtm.DefaultGenConfig(8, 0.7, 1))
	gen := workload.Uniform{Lo: 0.5, Hi: 1, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			TaskSet: ts, Processor: cpu.Continuous(0.1),
			Policy: &dvs.NonDVS{}, Workload: gen,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.DeadlineMisses != 0 {
			b.Fatal("miss")
		}
	}
}

// BenchmarkEngineLpSHE measures the same run under the full
// slack-analysis policy; the delta to BenchmarkEngineNonDVS is the
// cost of the paper's algorithm.
func BenchmarkEngineLpSHE(b *testing.B) {
	ts := rtm.MustGenerate(rtm.DefaultGenConfig(8, 0.7, 1))
	gen := workload.Uniform{Lo: 0.5, Hi: 1, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			TaskSet: ts, Processor: cpu.Continuous(0.1),
			Policy: core.NewLpSHE(), Workload: gen,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.DeadlineMisses != 0 {
			b.Fatal("miss")
		}
	}
}

// BenchmarkPolicies measures one-hyperperiod engine throughput for
// every registered policy on an identical configuration, one
// sub-benchmark per policy. bench.sh runs exactly this benchmark and
// records the per-policy ns/op in BENCH_<date>-<commit>.json, so the
// relative cost of each policy's scheduling decisions is tracked
// release over release.
func BenchmarkPolicies(b *testing.B) {
	ts := rtm.MustGenerate(rtm.DefaultGenConfig(8, 0.7, 1))
	gen := workload.Uniform{Lo: 0.5, Hi: 1, Seed: 1}
	for _, name := range policies.Names() {
		b.Run(name, func(b *testing.B) {
			mk, err := policies.Lookup(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(sim.Config{
					TaskSet: ts, Processor: cpu.Continuous(0.1),
					Policy: mk(), Workload: gen,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.DeadlineMisses != 0 {
					b.Fatal("miss")
				}
			}
		})
	}
}

// BenchmarkAnalyzerSlack measures a single slack-analysis invocation
// on a mid-size state (the per-scheduling-point cost reported in T3).
// bench.sh records its ns/op and allocs/op in
// BENCH_<date>-<commit>.json; the allocs/op figure is pinned to zero
// by the regression tests in internal/core.
func BenchmarkAnalyzerSlack(b *testing.B) {
	ts := rtm.MustGenerate(rtm.DefaultGenConfig(16, 0.8, 2))
	an := core.NewAnalyzer(ts)
	var active []*sim.JobState
	for i := 0; i < 8; i++ {
		j := ts.JobOf(i, 0)
		active = append(active, &sim.JobState{Job: j})
	}
	nextRel := func(i int) float64 { return ts.Tasks[i].Period }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		an.Analyze(1.0, active, nextRel)
	}
}

// BenchmarkEngineDecision measures the engine's per-scheduling-point
// cost under the full slack-analysis policy: one hyperperiod run per
// iteration, with the per-decision cost reported as the ns/decision
// metric. The allocs/op column tracks whole-run allocations: engine
// and policy setup plus one job state per concurrently live job (the
// engine recycles completed ones). The per-decision path and the job
// lifecycle are pinned allocation-free by the internal/sim and
// internal/core regression tests.
func BenchmarkEngineDecision(b *testing.B) {
	ts := rtm.MustGenerate(rtm.DefaultGenConfig(8, 0.7, 1))
	gen := workload.Uniform{Lo: 0.5, Hi: 1, Seed: 1}
	run := func() sim.Result {
		res, err := sim.Run(sim.Config{
			TaskSet: ts, Processor: cpu.Continuous(0.1),
			Policy: core.NewLpSHE(), Workload: gen,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	decisions := run().Decisions
	if decisions == 0 {
		b.Fatal("no scheduling decisions")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*decisions), "ns/decision")
}

// BenchmarkEngineDecisionFlight is BenchmarkEngineDecision with the
// decision flight recorder attached, pinning the observability tax on
// the hot path: the delta between the two ns/decision figures is the
// full cost of always-on provenance capture. The steady-state write
// path itself is pinned allocation-free by
// obs.TestFlightRecorderSteadyStateAllocs.
func BenchmarkEngineDecisionFlight(b *testing.B) {
	ts := rtm.MustGenerate(rtm.DefaultGenConfig(8, 0.7, 1))
	gen := workload.Uniform{Lo: 0.5, Hi: 1, Seed: 1}
	fr := obs.NewFlightRecorder(4096)
	run := func() sim.Result {
		p := core.NewLpSHE()
		res, err := sim.Run(sim.Config{
			TaskSet: ts, Processor: cpu.Continuous(0.1),
			Policy: p, Workload: gen,
			Observer: fr.Observer(p),
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	decisions := run().Decisions
	if decisions == 0 {
		b.Fatal("no scheduling decisions")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*decisions), "ns/decision")
}

// BenchmarkTaskSetGeneration measures UUniFast task-set generation.
func BenchmarkTaskSetGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rtm.Generate(rtm.DefaultGenConfig(16, 0.8, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
