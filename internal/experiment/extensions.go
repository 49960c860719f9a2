package experiment

import (
	"fmt"

	"dvsslack/internal/core"
	"dvsslack/internal/dvs"
	"dvsslack/internal/par"
	"dvsslack/internal/report"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
	"dvsslack/internal/workload"
)

// The experiments in this file extend the paper's evaluation (they
// have no counterpart figure in the original): F9 stresses the
// release-jitter robustness unique to the slack-analysis guarantee,
// and F10 sweeps the workload *shape* at a fixed mean to show that
// the savings depend on where the actual execution times fall, not
// just their average.

// Fig9JitterRobustness measures normalized energy of lpSHE and the
// non-DVS reference as release jitter grows from 0 to 90% of each
// period (U = 0.7, n = 8). The guarantee columns count deadline
// misses: lpSHE must stay at zero at every jitter level, while the
// worst-case-utilization pacer (staticEDF's speed, run open-loop) is
// included to show that utilization pacing alone loses the hard
// guarantee under arrival bunching.
func Fig9JitterRobustness(opts Options) (*Report, error) {
	r := newReport("f9", "F9: release-jitter robustness (extension)",
		"n=8 tasks, U=0.7, AET/WCET ~ U[0.5,1]; jitter as fraction of each period")
	fracs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9}
	if opts.Quick {
		fracs = []float64{0, 0.5, 0.9}
	}
	tbl := report.NewTable(r.Title,
		"jitter_frac", "lpSHE", "lpSHE_misses", "ccEDF", "ccEDF_misses", "upacer_misses")
	chart := &report.Chart{
		Title:  r.Title,
		XLabel: "jitter fraction of period",
		YLabel: "normalized energy (non-DVS = 1)",
		X:      fracs,
	}
	// One cell per (jitter fraction, seed): four simulations sharing a
	// task set. Cells fan out over the pool; the per-fraction means
	// accumulate afterwards in seed order, exactly as the serial loop
	// did, so the report bytes do not depend on Workers.
	type f9Cell struct {
		lp, cc        float64
		lpM, ccM, upM int
	}
	ns := opts.seeds()
	cells := make([]f9Cell, len(fracs)*ns)
	perr := par.ForEach(opts.workers(), len(cells), func(k int) error {
		frac := fracs[k/ns]
		seed := opts.Seed0 + uint64(k%ns)*131 + 5
		base, err := rtm.Generate(rtm.DefaultGenConfig(8, 0.7, seed))
		if err != nil {
			return err
		}
		ts := rtm.NewTaskSet(base.Name, base.Tasks...)
		for i := range ts.Tasks {
			ts.Tasks[i].Jitter = frac * ts.Tasks[i].Period
		}
		gen := workload.Uniform{Lo: 0.5, Hi: 1, Seed: seed}
		run := func(p sim.Policy) (sim.Result, error) {
			return sim.Run(sim.Config{
				TaskSet: ts, Processor: defaultProcessor(), Policy: p,
				Workload: gen, JitterSeed: seed ^ 0x77,
			})
		}
		ref, err := run(&dvs.NonDVS{})
		if err != nil {
			return err
		}
		lp, err := run(core.NewLpSHE())
		if err != nil {
			return err
		}
		ccRes, err := run(&dvs.CCEDF{})
		if err != nil {
			return err
		}
		up, err := run(&utilizationPacer{speed: ts.Utilization()})
		if err != nil {
			return err
		}
		cells[k] = f9Cell{
			lp: lp.NormalizedTo(ref), cc: ccRes.NormalizedTo(ref),
			lpM: lp.DeadlineMisses, ccM: ccRes.DeadlineMisses, upM: up.DeadlineMisses,
		}
		return nil
	})
	if perr != nil {
		return nil, perr
	}
	lpsheY := make([]float64, 0, len(fracs))
	ccY := make([]float64, 0, len(fracs))
	for fi, frac := range fracs {
		var lpshe, cc sample
		var lpsheMiss, ccMiss, upMiss int
		for s := 0; s < ns; s++ {
			cell := cells[fi*ns+s]
			lpshe.add(cell.lp)
			cc.add(cell.cc)
			lpsheMiss += cell.lpM
			ccMiss += cell.ccM
			upMiss += cell.upM
		}
		tbl.AddRow(frac, lpshe.mean(), lpsheMiss, cc.mean(), ccMiss, upMiss)
		lpsheY = append(lpsheY, lpshe.mean())
		ccY = append(ccY, cc.mean())
		r.set(fmt.Sprintf("lpSHE/%g", frac), lpshe.mean())
		r.set(fmt.Sprintf("misses/%g", frac), float64(lpsheMiss))
		r.set(fmt.Sprintf("upacer_misses/%g", frac), float64(upMiss))
	}
	chart.Series = append(chart.Series,
		report.Series{Name: "lpSHE", Y: lpsheY},
		report.Series{Name: "ccEDF", Y: ccY},
	)
	r.Tables = append(r.Tables, tbl)
	r.Charts = append(r.Charts, chart)
	return r, nil
}

// utilizationPacer runs open-loop at the worst-case utilization: the
// optimal static policy for strictly periodic arrivals, used here to
// demonstrate its breakdown under jitter.
type utilizationPacer struct {
	sim.NopHooks
	speed float64
}

func (p *utilizationPacer) Name() string                      { return "u-pacer" }
func (p *utilizationPacer) Reset(sim.System)                  {}
func (p *utilizationPacer) SelectSpeed(*sim.JobState) float64 { return p.speed }

// Fig10WorkloadShapes sweeps the distribution shape of AET/WCET at a
// fixed mean of ~0.5: the reclaiming policies' savings depend on the
// shape (bimodal leaves the most harvestable slack; constant the
// least variance), while the guarantee is shape-independent.
func Fig10WorkloadShapes(opts Options) (*Report, error) {
	r := newReport("f10", "F10: workload-shape sensitivity (extension)",
		"n=8 tasks, U=0.7; four AET distributions with mean AET/WCET ≈ 0.5")
	shapes := []struct {
		name string
		mk   func(seed uint64) workload.Generator
	}{
		{"constant", func(seed uint64) workload.Generator { return workload.Constant{Frac: 0.5} }},
		{"uniform", func(seed uint64) workload.Generator { return workload.Uniform{Lo: 0, Hi: 1, Seed: seed} }},
		{"normal", func(seed uint64) workload.Generator {
			return workload.Normal{Mean: 0.5, StdDev: 0.15, Seed: seed}
		}},
		{"bimodal", func(seed uint64) workload.Generator {
			return workload.Bimodal{LightFrac: 0.25, HeavyFrac: 1.0, PHeavy: 1.0 / 3, Seed: seed}
		}},
		{"sinusoidal", func(seed uint64) workload.Generator {
			return workload.Sinusoidal{Mean: 0.5, Amp: 0.35, Jitter: 0.05, Seed: seed}
		}},
	}
	factories := Suite()
	names := factoryNames(factories)
	tbl := report.NewTable(r.Title, append([]string{"shape"}, names...)...)
	for _, shape := range shapes {
		sp, err := runSweepPoint(8, 0.7, shape.mk, defaultProcessor(), opts, factories)
		if err != nil {
			return nil, err
		}
		row := []any{shape.name}
		for _, n := range names {
			v := sp.norm[n].mean()
			row = append(row, v)
			r.set(fmt.Sprintf("%s/%s", n, shape.name), v)
		}
		r.set(fmt.Sprintf("misses/%s", shape.name), float64(sp.misses))
		tbl.AddRow(row...)
	}
	r.Tables = append(r.Tables, tbl)
	return r, nil
}
