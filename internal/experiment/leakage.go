package experiment

import (
	"fmt"

	"dvsslack/internal/core"
	"dvsslack/internal/cpu"
	"dvsslack/internal/dvs"
	"dvsslack/internal/report"
	"dvsslack/internal/sim"
)

// Fig11Leakage extends the evaluation with leakage-aware DVS: static
// (leakage) power is drawn whenever the processor is powered, a
// deep-sleep state (with wake-up cost) is available during idle, and
// the critical-speed floor (dvs.EfficientFloor) stops the policy from
// stretching below the energy-efficient speed. As leakage grows,
// plain lpSHE over-stretches (leakage integrates over the longer
// runtime) while the floored variant converts the excess stretch into
// sleepable idle time — the crossover the leakage-aware DVS
// literature predicts.
func Fig11Leakage(opts Options) (*Report, error) {
	r := newReport("f11", "F11: leakage power and the critical-speed floor (extension)",
		"n=8 tasks, U=0.5, AET/WCET ~ U[0.5,1]; sleep-capable processor (sleep power 0.005, wake energy 0.2)")
	leaks := []float64{0, 0.02, 0.05, 0.1, 0.2, 0.4}
	if opts.Quick {
		leaks = []float64{0, 0.1, 0.4}
	}
	mkProc := func(leak float64) *cpu.Processor {
		p := defaultProcessor()
		p.LeakagePower = leak
		p.SleepEnabled = true
		p.SleepPower = 0.005
		p.WakeEnergy = 0.2
		return p
	}
	policies := []struct {
		name string
		mk   PolicyFactory
	}{
		{"lpSHE", func() sim.Policy { return core.NewLpSHE() }},
		{"lpSHE+crit", func() sim.Policy { return dvs.NewEfficientFloor(core.NewLpSHE()) }},
		{"staticEDF", func() sim.Policy { return &dvs.StaticEDF{} }},
	}
	tbl := report.NewTable(r.Title,
		"leakage", "s_crit", "lpSHE", "lpSHE+crit", "staticEDF")
	chart := &report.Chart{
		Title:  r.Title,
		XLabel: "leakage power (fraction of full-speed dynamic power)",
		YLabel: "normalized energy (non-DVS on same processor = 1)",
		X:      leaks,
	}
	cells := map[string][]float64{}
	for _, pc := range policies {
		for _, leak := range leaks {
			proc := mkProc(leak)
			factories := []PolicyFactory{
				func() sim.Policy { return &dvs.NonDVS{} },
				pc.mk,
			}
			sp, err := runSweepPoint(8, 0.5, uniformGen(0.5), proc, opts, factories)
			if err != nil {
				return nil, err
			}
			name := factoryNames(factories)[1]
			v := sp.norm[name].mean()
			cells[pc.name] = append(cells[pc.name], v)
			r.set(fmt.Sprintf("%s/%g", pc.name, leak), v)
			r.set(fmt.Sprintf("misses/%s/%g", pc.name, leak), float64(sp.misses))
		}
		chart.Series = append(chart.Series, report.Series{Name: pc.name, Y: cells[pc.name]})
	}
	for i, leak := range leaks {
		tbl.AddRow(leak, mkProc(leak).CriticalSpeed(),
			cells["lpSHE"][i], cells["lpSHE+crit"][i], cells["staticEDF"][i])
	}
	r.Tables = append(r.Tables, tbl)
	r.Charts = append(r.Charts, chart)
	return r, nil
}
