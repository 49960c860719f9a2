package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dvsslack/internal/experiment"
	"dvsslack/internal/policies"
	"dvsslack/internal/sim"
)

// gridWorkers is the harness width: the box's two cores.
const gridWorkers = 2

// gridPass is the record of one full regeneration.
type gridPass struct {
	digest string
	wall   time.Duration
	cells  int
	misses int // lpSHE cells that missed a deadline
	cellMs sample
}

// runGridPass regenerates every registered experiment at full scale,
// in-process, in the given order, and digests the printed reports
// (combined in registry order, so the digest does not depend on the
// order). Every cell goes through Options.Exec; traced, the Exec
// wrapper times each cell and the policy and observer calls inside it.
func runGridPass(order []string, tr *tracer) (gridPass, error) {
	var (
		cells, misses atomic.Int64
		mu            sync.Mutex
		cellMs        sample
	)
	exec := func(cfg sim.Config) (sim.Result, error) {
		start := time.Now()
		res, err := tr.simRun(cfg)
		if tr != nil {
			d := float64(time.Since(start)) / 1e6
			mu.Lock()
			cellMs = append(cellMs, d)
			mu.Unlock()
		}
		cells.Add(1)
		if err == nil && res.DeadlineMisses > 0 && isLpSHE(policies.SpecOf(res.Policy)) {
			misses.Add(1)
		}
		return res, err
	}
	reports := map[string][]byte{}
	start := time.Now()
	for _, id := range order {
		r, err := experiment.Run(id, experiment.Options{Workers: gridWorkers, Exec: exec})
		if err != nil {
			return gridPass{}, fmt.Errorf("experiment %s: %w", id, err)
		}
		var b bytes.Buffer
		r.Print(&b)
		reports[id] = b.Bytes()
	}
	wall := time.Since(start)
	h := sha256.New()
	for _, id := range experiment.IDs() {
		h.Write(reports[id])
	}
	return gridPass{
		digest: hex.EncodeToString(h.Sum(nil)),
		wall:   wall,
		cells:  int(cells.Load()),
		misses: int(misses.Load()),
		cellMs: cellMs,
	}, nil
}

// checkGrid compares every pass's report digest with the reference
// and flags lpSHE deadline misses.
func checkGrid(o *outcome, ref string, passes []gridPass) {
	for i, p := range passes {
		if p.digest != ref {
			o.mismatch("grid pass %d: report digest %s, reference %s", i, short(p.digest), short(ref))
		}
		if p.misses > 0 {
			o.mismatch("grid pass %d: %d lpSHE cells missed a deadline", i, p.misses)
		}
	}
}

func short(s string) string {
	if len(s) > 16 {
		return s[:16]
	}
	return s
}

// gridOrder is the seeded order the experiments regenerate in. The
// grid itself is the paper's evaluation at its canonical seed: a
// different harness seed moves the grid's total work by up to 40%
// (a handful of costly utilization-1.0 cells), which would swamp any
// change under test.
func gridOrder(seed uint64) []string {
	ids := experiment.IDs()
	rand.New(rand.NewSource(int64(seed))).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// runGrid is the `grid` workload: closed-loop full regenerations of
// the paper's evaluation. Set-up is a reduced-scale pass that lets
// lazy initialisation and caches settle. The first timed pass is the
// reference the others (and the traced pass) must match byte for byte.
func runGrid(rc runConfig) (*outcome, error) {
	o := newOutcome()
	order := gridOrder(rc.seed)
	_, err := timeSetup(o, func() (struct{}, error) {
		for _, id := range order {
			if _, err := experiment.Run(id, experiment.Options{Quick: true, Workers: gridWorkers}); err != nil {
				return struct{}{}, fmt.Errorf("warm-up %s: %w", id, err)
			}
		}
		return struct{}{}, nil
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}

	var passes []gridPass
	var rss sample // per pass: the RSS high-water mark during it
	mem := startMem()
	start := time.Now()
	// At least two passes so the digest is compared, more while a
	// further pass still fits in the window. A traced run makes one
	// untraced pass and then the traced one.
	for {
		resetPeakRSS()
		p, err := runGridPass(order, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		rss = append(rss, peakRSSMB())
		if rc.trace || (len(passes) >= 2 && time.Since(start)+p.wall > rc.seconds) {
			break
		}
	}
	var wall sample
	cells := 0
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		cells += p.cells
		o.attempted += p.cells
		o.failed += p.misses
	}

	if rc.trace {
		mem.report(o)
		tr := newTracer()
		tp, err := runGridPass(order, tr)
		if err != nil {
			return nil, err
		}
		passes = append(passes, tp)
		o.attempted += tp.cells
		o.failed += tp.misses
		o.metrics["experiment.cells"] = float64(tp.cells)
		o.metrics["experiment.cell_ms_p50"] = tp.cellMs.median()
		o.metrics["experiment.cell_ms_p99"] = tp.cellMs.quantile(0.99)
		o.metrics["experiment.busy_share"] = tp.cellMs.sum() / 1e3 / (tp.wall.Seconds() * gridWorkers)
		o.metrics["trace.overhead_share"] = tp.wall.Seconds()/wall.median() - 1
		simLayers(o, tr)
		o.say("grid_s (untraced)", wall.median(), "s")
		o.say("grid_s (traced)", tp.wall.Seconds(), "s")
	} else {
		med := wall.median()
		o.metrics["p50_ms"] = med * 1e3
		o.metrics["peak_rss_mb"] = rss.median()
		o.say("grid_s", med, "s")
		o.say("grid_cells_per_s", float64(cells)/wall.sum(), "1/s")
		o.say("grid_passes", float64(len(passes)), "count")
		for i, p := range passes {
			o.say(fmt.Sprintf("grid_s pass %d", i), p.wall.Seconds(), "s")
		}
		o.say("grid_cells_per_pass", float64(passes[0].cells), "count")
		o.say("peak_rss_mb", rss.median(), "MB")
	}
	checkGrid(o, passes[0].digest, passes)
	return o, nil
}
