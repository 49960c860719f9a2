package experiment

import (
	"fmt"

	"dvsslack/internal/core"
	"dvsslack/internal/cpu"
	"dvsslack/internal/dvs"
	"dvsslack/internal/report"
	"dvsslack/internal/sim"
	"dvsslack/internal/workload"
)

// defaultProcessor returns the continuous processor of the main
// experiments (s_min = 0.1, cubic power, idle power 0.05).
func defaultProcessor() *cpu.Processor { return cpu.Continuous(0.1) }

// uniformGen returns the standard workload: AET/WCET uniform in
// [ratio, 1].
func uniformGen(ratio float64) func(seed uint64) workload.Generator {
	return func(seed uint64) workload.Generator {
		return workload.Uniform{Lo: ratio, Hi: 1, Seed: seed}
	}
}

// utilizations returns the U sweep of figures F3/F6/F8.
func utilizations(quick bool) []float64 {
	if quick {
		return []float64{0.3, 0.6, 0.9}
	}
	return []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
}

// sweepToReport renders a one-parameter sweep as chart + table.
func sweepToReport(r *Report, xs []float64, xLabel string, names []string,
	points []*sweepPoint) {

	tbl := report.NewTable(r.Title, append([]string{xLabel}, append(names, "bound")...)...)
	chart := &report.Chart{
		Title:  r.Title,
		XLabel: xLabel,
		YLabel: "normalized energy (non-DVS = 1)",
		X:      xs,
	}
	series := map[string]*report.Series{}
	for _, n := range names {
		chart.Series = append(chart.Series, report.Series{Name: n})
	}
	chart.Series = append(chart.Series, report.Series{Name: "bound"})
	for i := range chart.Series {
		series[chart.Series[i].Name] = &chart.Series[i]
	}
	for i, sp := range points {
		row := []any{xs[i]}
		for _, n := range names {
			v := sp.norm[n].mean()
			row = append(row, v)
			series[n].Y = append(series[n].Y, v)
			r.set(fmt.Sprintf("%s/%g", n, xs[i]), v)
		}
		b := sp.bound.mean()
		row = append(row, b)
		series["bound"].Y = append(series["bound"].Y, b)
		r.set(fmt.Sprintf("bound/%g", xs[i]), b)
		tbl.AddRow(row...)
		r.set(fmt.Sprintf("misses/%g", xs[i]), float64(sp.misses))
	}
	r.Tables = append(r.Tables, tbl)
	r.Charts = append(r.Charts, chart)
}

// Fig3EnergyVsUtilization reproduces figure F3: normalized energy of
// every policy as the worst-case utilization sweeps 0.2..1.0
// (8 tasks, AET/WCET ~ U[0.5, 1]).
func Fig3EnergyVsUtilization(opts Options) (*Report, error) {
	r := newReport("f3", "F3: normalized energy vs worst-case utilization",
		"n=8 tasks, AET/WCET ~ U[0.5,1], continuous speeds")
	factories := Suite()
	names := factoryNames(factories)
	xs := utilizations(opts.Quick)
	var points []*sweepPoint
	for _, u := range xs {
		sp, err := runSweepPoint(8, u, uniformGen(0.5), defaultProcessor(), opts, factories)
		if err != nil {
			return nil, err
		}
		points = append(points, sp)
	}
	sweepToReport(r, xs, "worst-case utilization", names, points)
	return r, nil
}

// Fig4EnergyVsBCETRatio reproduces figure F4: normalized energy as
// the BCET/WCET ratio sweeps 0.1..1.0 at fixed U = 0.7. As the ratio
// approaches 1 the dynamic slack vanishes and all reclaiming policies
// converge toward the static optimum.
func Fig4EnergyVsBCETRatio(opts Options) (*Report, error) {
	r := newReport("f4", "F4: normalized energy vs BCET/WCET ratio",
		"n=8 tasks, U=0.7, AET/WCET ~ U[ratio,1], continuous speeds")
	factories := Suite()
	names := factoryNames(factories)
	xs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	if opts.Quick {
		xs = []float64{0.1, 0.5, 0.9}
	}
	var points []*sweepPoint
	for _, ratio := range xs {
		sp, err := runSweepPoint(8, 0.7, uniformGen(ratio), defaultProcessor(), opts, factories)
		if err != nil {
			return nil, err
		}
		points = append(points, sp)
	}
	sweepToReport(r, xs, "BCET/WCET ratio", names, points)
	return r, nil
}

// Fig5EnergyVsTaskCount reproduces figure F5: normalized energy as
// the task-set size sweeps 2..32 at fixed U = 0.7.
func Fig5EnergyVsTaskCount(opts Options) (*Report, error) {
	r := newReport("f5", "F5: normalized energy vs number of tasks",
		"U=0.7, AET/WCET ~ U[0.5,1], continuous speeds")
	factories := Suite()
	names := factoryNames(factories)
	ns := []int{2, 4, 8, 16, 32}
	if opts.Quick {
		ns = []int{2, 8}
	}
	xs := make([]float64, len(ns))
	var points []*sweepPoint
	for i, n := range ns {
		xs[i] = float64(n)
		sp, err := runSweepPoint(n, 0.7, uniformGen(0.5), defaultProcessor(), opts, factories)
		if err != nil {
			return nil, err
		}
		points = append(points, sp)
	}
	sweepToReport(r, xs, "number of tasks", names, points)
	return r, nil
}

// Fig6DiscreteLevels reproduces figure F6: the cost of discrete
// speed levels. lpSHE runs on each processor preset across the U
// sweep; requested speeds quantize *up* to the next level, so
// deadlines hold but energy rises with coarser level sets. The
// "+dual" series emulate continuous speeds with the Ishihara-Yasuura
// two-level split (dvs.DualLevel), recovering most of the
// quantization loss.
func Fig6DiscreteLevels(opts Options) (*Report, error) {
	r := newReport("f6", "F6: effect of discrete speed levels on lpSHE",
		"n=8 tasks, AET/WCET ~ U[0.5,1]; normalized vs continuous non-DVS")
	procs := []struct {
		name string
		proc *cpu.Processor
		dual bool
	}{
		{"continuous", defaultProcessor(), false},
		{"uniform8", cpu.UniformLevels(8), false},
		{"uniform4", cpu.UniformLevels(4), false},
		{"uniform4+dual", cpu.UniformLevels(4), true},
		{"xscale", cpu.XScale(), false},
		{"xscale+dual", cpu.XScale(), true},
		{"crusoe", cpu.Crusoe(), false},
	}
	xs := utilizations(opts.Quick)
	chart := &report.Chart{
		Title:  r.Title,
		XLabel: "worst-case utilization",
		YLabel: "normalized energy (non-DVS = 1)",
		X:      xs,
	}
	tbl := report.NewTable(r.Title, append([]string{"U"}, procNames(procs)...)...)
	cells := make([][]float64, len(xs))
	for i := range cells {
		cells[i] = make([]float64, len(procs))
	}
	for pi, pc := range procs {
		polName := "lpSHE"
		mk := func() sim.Policy { return core.NewLpSHE() }
		if pc.dual {
			polName = "lpSHE+dual"
			mk = func() sim.Policy { return dvs.NewDualLevel(core.NewLpSHE()) }
		}
		factories := []PolicyFactory{
			func() sim.Policy { return &dvs.NonDVS{} },
			mk,
		}
		var ys []float64
		for xi, u := range xs {
			sp, err := runSweepPoint(8, u, uniformGen(0.5), pc.proc, opts, factories)
			if err != nil {
				return nil, err
			}
			v := sp.norm[polName].mean()
			ys = append(ys, v)
			cells[xi][pi] = v
			r.set(fmt.Sprintf("%s/%g", pc.name, u), v)
			r.set(fmt.Sprintf("misses/%s/%g", pc.name, u), float64(sp.misses))
		}
		chart.Series = append(chart.Series, report.Series{Name: pc.name, Y: ys})
	}
	for xi, u := range xs {
		row := []any{u}
		for pi := range procs {
			row = append(row, cells[xi][pi])
		}
		tbl.AddRow(row...)
	}
	r.Tables = append(r.Tables, tbl)
	r.Charts = append(r.Charts, chart)
	return r, nil
}

func procNames(procs []struct {
	name string
	proc *cpu.Processor
	dual bool
}) []string {
	var names []string
	for _, p := range procs {
		names = append(names, p.name)
	}
	return names
}

// Fig7TransitionOverhead reproduces figure F7: sensitivity to
// speed-transition overhead. The processor stalls for SwitchTime on
// every speed change and pays transition energy. lpSHE is natively
// overhead-aware (it reserves two stalls out of the analyzed slack),
// so its deadlines hold at every overhead level; the hysteresis
// guard additionally suppresses marginal switches. staticEDF is the
// switch-free reference: it pays (almost) no overhead but cannot
// reclaim dynamic slack. Energy stays normalized to the overhead-free
// non-DVS run on the same workload so the overhead cost itself is
// visible.
func Fig7TransitionOverhead(opts Options) (*Report, error) {
	r := newReport("f7", "F7: normalized energy vs speed-transition overhead",
		"n=8 tasks, U=0.7, AET/WCET ~ U[0.5,1], switch energy coeff 0.1")
	switchTimes := []float64{0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0}
	if opts.Quick {
		switchTimes = []float64{0, 0.5, 2.0}
	}
	policies := []struct {
		name    string
		factory PolicyFactory
	}{
		{"lpSHE", func() sim.Policy { return core.NewLpSHE() }},
		{"lpSHE+guard", func() sim.Policy { return dvs.NewOverheadGuard(core.NewLpSHE()) }},
		{"staticEDF", func() sim.Policy { return &dvs.StaticEDF{} }},
	}
	chart := &report.Chart{
		Title:  r.Title,
		XLabel: "switch time (time units)",
		YLabel: "normalized energy (zero-overhead non-DVS = 1)",
		X:      switchTimes,
	}
	tbl := report.NewTable(r.Title, "switch_time", "lpSHE", "lpSHE+guard", "staticEDF", "switches/job(lpSHE)")
	cells := make(map[string][]float64)
	switchRates := make([]float64, len(switchTimes))
	for _, pc := range policies {
		for si, st := range switchTimes {
			proc := defaultProcessor()
			proc.SwitchTime = st
			proc.SwitchEnergyCoeff = 0.1
			factories := []PolicyFactory{
				func() sim.Policy { return &dvs.NonDVS{} },
				pc.factory,
			}
			sp, err := runSweepPointDetail(8, 0.7, uniformGen(0.5), proc, opts, factories,
				func(res map[string]sim.Result) {
					if pc.name != "lpSHE" {
						return
					}
					if lp, ok := res["lpSHE"]; ok && lp.JobsCompleted > 0 {
						switchRates[si] += float64(lp.SpeedSwitches) / float64(lp.JobsCompleted)
					}
				})
			if err != nil {
				return nil, err
			}
			name := factoryNames(factories)[1]
			v := sp.norm[name].mean()
			cells[pc.name] = append(cells[pc.name], v)
			r.set(fmt.Sprintf("%s/%g", pc.name, st), v)
			r.set(fmt.Sprintf("misses/%s/%g", pc.name, st), float64(sp.misses))
		}
		chart.Series = append(chart.Series, report.Series{Name: pc.name, Y: cells[pc.name]})
	}
	for si, st := range switchTimes {
		tbl.AddRow(st, cells["lpSHE"][si], cells["lpSHE+guard"][si],
			cells["staticEDF"][si], switchRates[si]/float64(opts.seeds()))
	}
	r.Tables = append(r.Tables, tbl)
	r.Charts = append(r.Charts, chart)
	return r, nil
}

// Fig8Ablation reproduces figure F8: ablation of the slack analysis.
// The full algorithm is compared against the no-reclaim variant
// (early-completion slack withheld) and the truncated-scan variants
// across the utilization sweep.
func Fig8Ablation(opts Options) (*Report, error) {
	r := newReport("f8", "F8: slack-analysis ablation",
		"n=8 tasks, AET/WCET ~ U[0.5,1], continuous speeds")
	factories := []PolicyFactory{
		func() sim.Policy { return &dvs.NonDVS{} },
		func() sim.Policy { return core.NewLpSHE() },
		func() sim.Policy { return core.NewLpSHEVariant(core.Greedy) },
		func() sim.Policy { return core.NewLpSHEVariant(core.NoReclaim) },
		func() sim.Policy { return core.NewLpSHEVariant(core.Horizon8) },
		func() sim.Policy { return core.NewLpSHEVariant(core.Horizon32) },
	}
	names := factoryNames(factories)[1:] // skip the reference
	xs := utilizations(opts.Quick)
	var points []*sweepPoint
	for _, u := range xs {
		sp, err := runSweepPoint(8, u, uniformGen(0.5), defaultProcessor(), opts, factories)
		if err != nil {
			return nil, err
		}
		points = append(points, sp)
	}
	sweepToReport(r, xs, "worst-case utilization", names, points)
	return r, nil
}
