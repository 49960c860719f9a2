package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"dvsslack/internal/experiment"
	"dvsslack/internal/server"
	"dvsslack/internal/sim"
)

// freshPlan is the serve-fresh ladder. Two senders saturate one dvsd
// with a pool of 2 at about 1,600/s of grid cells on the two-core box;
// the nominal rate sits well below that knee, where the tail is set by
// the costliest cells rather than by queueing, and gets half the
// window. The top rung is a closed loop at saturation.
var freshPlan = ladderPlan{
	ladder:  []float64{500, 1000, 1500, math.Inf(1)},
	share:   []float64{0.5, 0.15, 0.15, 0.2},
	nominal: 0,
	slo:     20,
}

// gridRequests captures the wire form of every grid cell, in harness
// order: exactly what `dvsexp -addr` sends (server.RequestFromConfig).
// The harness runs serially with a stub executor, so only the inputs
// are generated, never the simulations.
func gridRequests() ([]server.SimRequest, error) {
	var reqs []server.SimRequest
	exec := func(cfg sim.Config) (sim.Result, error) {
		req, err := server.RequestFromConfig(cfg)
		if err != nil {
			return sim.Result{}, fmt.Errorf("cell without wire form: %w", err)
		}
		reqs = append(reqs, req)
		return sim.Result{Policy: cfg.Policy.Name()}, nil
	}
	for _, id := range experiment.IDs() {
		if _, err := experiment.Run(id, experiment.Options{Workers: 1, Exec: exec}); err != nil {
			return nil, fmt.Errorf("capturing %s: %w", id, err)
		}
	}
	return reqs, nil
}

// freshRig is the serve-fresh system under test: one dvsd (pool of 2)
// behind a loopback listener, and the sender connections.
type freshRig struct {
	cells  []server.SimRequest
	strata [][]int // per rung: the cells it sends, in seeded order
	salt   uint64
	srv    *server.Server
	ep     *endpoint
	snd    *senders
}

// request is the wire request for sequence number seq. The grid is the
// paper's evaluation at its canonical seed, dealt round-robin into one
// stratum per rung plus one for warm-up, so every rung sends the same
// mix of cheap and costly cells whatever the seed (the nominal rung
// sends about its whole stratum); the seed sets the order within each
// stratum and a jitter seed unique to the sequence number, so no two
// requests share a cache key. On jitter-free task sets the jitter seed
// changes the key and nothing else.
func (f *freshRig) request(seq int) server.SimRequest {
	st := f.strata[rungOf(seq, freshPlan)]
	req := f.cells[st[(seq%seqStride)%len(st)]]
	req.JitterSeed = f.salt + uint64(seq)
	return req
}

func setupFresh(seed uint64) (*freshRig, error) {
	cells, err := gridRequests()
	if err != nil {
		return nil, err
	}
	f := &freshRig{
		cells:  cells,
		strata: make([][]int, len(freshPlan.ladder)+1),
		salt:   seed << 32,
		srv:    server.New(server.Config{Workers: 2}),
	}
	for i := range cells {
		k := i % len(f.strata)
		f.strata[k] = append(f.strata[k], i)
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	for _, st := range f.strata {
		rng.Shuffle(len(st), func(i, j int) { st[i], st[j] = st[j], st[i] })
	}
	if f.ep, err = listen(f.srv); err != nil {
		return nil, err
	}
	f.snd = newSenders(f.ep.addr)
	if err := f.snd.warm(); err != nil {
		f.close()
		return nil, err
	}
	// Warm the pool and the engine on requests outside the measured
	// sequence space (their keys never recur).
	warm := f.strata[len(freshPlan.ladder)]
	for i := 0; i < 100; i++ {
		req := f.cells[warm[i%len(warm)]]
		req.JitterSeed = ^uint64(i)
		if _, err := f.snd.clients[0].Simulate(context.Background(), req); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

func (f *freshRig) close() {
	f.snd.close()
	f.ep.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f.srv.Shutdown(ctx)
}

// runServeFresh is the `serve-fresh` workload: open-loop /v1/simulate
// traffic into one dvsd, every request a cache miss.
func runServeFresh(rc runConfig) (*outcome, error) {
	o := newOutcome()
	f, err := timeSetup(o, func() (*freshRig, error) { return setupFresh(rc.seed) }, (*freshRig).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	x := newResponses()
	send := func(t *tracer, sender, seq int) (int, bool, time.Time) {
		req := f.request(seq)
		id := fmt.Sprintf("pb-%d", seq)
		var res server.SimResult
		var err error
		t.call(id, "simulate", func() int64 {
			res, err = f.snd.clients[sender].Simulate(requestCtx(id), req)
			return res.WallNanos
		})
		done := time.Now()
		if err != nil {
			return classSimulate, false, done
		}
		x.put(seq, canonResult(res))
		return classSimulate, true, done
	}
	var tr *tracer
	var before []server.MetricsSnapshot
	var beforeErr error
	if rc.trace {
		tr = newTracer()
	}
	setTracer := func(t *tracer) {
		if t != nil {
			before, beforeErr = snapshots([]string{f.ep.addr})
			f.ep.set(t.wrapHandler("server", "", f.srv))
			return
		}
		f.ep.set(f.srv)
	}
	rungs, traced := servingRun(rc, o, freshPlan, tr, setTracer, send)
	rss := peakRSSMB()
	if rc.trace {
		after, err := snapshots([]string{f.ep.addr})
		if err = errors.Join(beforeErr, err); err != nil {
			return nil, err
		}
		serverLayer(o, before, after)
	} else {
		o.metrics["peak_rss_mb"] = rss
		o.say("peak_rss_mb", rss, "MB")
	}
	wrong := checkSimulate(o, tr, f.request, x.got)
	reportServing(rc, o, freshPlan, rungs, traced, wrong, freshPlan.slo/2)
	if rc.trace {
		simLayers(o, tr)
		spanLayers(o, tr.snapshotSpans())
		if err := tr.writeSpans(rc.spans); err != nil {
			return nil, err
		}
	}
	return o, nil
}
