package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dvsslack/internal/cluster"
	"dvsslack/internal/prng"
	"dvsslack/internal/rtm"
	"dvsslack/internal/scenario"
	"dvsslack/internal/server"
)

// fleetPlan is the fleet-hot ladder. With the load generator, the
// coordinator and both workers sharing the two-core box, the mix
// saturates near 3,000/s; the nominal rate is half that and gets half
// the window. The top rung is a closed loop at saturation.
var fleetPlan = ladderPlan{
	ladder:  []float64{1500, 2250, 3000, math.Inf(1)},
	share:   []float64{0.5, 0.15, 0.15, 0.2},
	nominal: 0,
	slo:     10,
}

// Traffic mix of fleet-hot: 5% scenario posts; of the simulate
// requests, one in ten is a fresh key.
const (
	scenarioShare = 0.05
	freshShare    = 0.10
)

// fleetSpecs are the policies of the hot key population.
var fleetSpecs = []string{"nondvs", "static", "lpps", "cc", "la", "dra", "feedback", "lpshe"}

// fleetWorkloadSeeds is the number of AET streams per (task set,
// policy) in the hot population.
const fleetWorkloadSeeds = 10

// scenarioDoc is one document of the repository's scenarios/ corpus.
type scenarioDoc struct {
	name string
	body []byte
}

// loadScenarios reads the scenario corpus from the checkout.
func loadScenarios(dir string) ([]scenarioDoc, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.yaml"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var docs []scenarioDoc
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		docs = append(docs, scenarioDoc{name: filepath.Base(p), body: b})
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("no scenario documents in %s", dir)
	}
	return docs, nil
}

// fleetRig is the fleet-hot system under test: a coordinator over two
// in-process dvsd workers (pool of 1 each), every node behind its own
// loopback listener.
type fleetRig struct {
	seed    uint64
	hot     []server.SimRequest // the warmed key population, Zipf rank order
	draws   []int               // Zipf ranks into hot
	docs    []scenarioDoc
	workers []*server.Server
	wEps    []*endpoint
	coord   *cluster.Coordinator
	cEp     *endpoint
	snd     *senders
}

// hotPopulation is every (task set, policy, AET stream) combination
// of the three example task sets.
func hotPopulation(seed uint64) []server.SimRequest {
	var pop []server.SimRequest
	for _, ts := range []*rtm.TaskSet{rtm.Quickstart(), rtm.CNC(), rtm.Videophone()} {
		for _, spec := range fleetSpecs {
			for k := uint64(0); k < fleetWorkloadSeeds; k++ {
				pop = append(pop, server.SimRequest{
					TaskSet:  ts,
					Policy:   spec,
					Workload: server.WorkloadSpec{Kind: "uniform", Lo: 0.5, Hi: 1, Seed: k},
				})
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
	return pop
}

// zipfDraws is the size of the precomputed table of Zipf ranks that
// hot requests index by a hash of their sequence number.
const zipfDraws = 1 << 16

// request returns sequence number seq's class and body: a scenario
// document, a fresh simulate key, or a Zipf draw from the hot
// population. The choice is a pure function of (seed, seq).
func (f *fleetRig) request(seq int) (class int, req server.SimRequest, doc int) {
	u := prng.Float64(prng.Hash3(f.seed, seq, 0x5ce9))
	switch {
	case u < scenarioShare:
		return classScenario, server.SimRequest{}, int(prng.Hash3(f.seed, seq, 1) % uint64(len(f.docs)))
	case u < scenarioShare+(1-scenarioShare)*freshShare:
		h := prng.Hash3(f.seed, seq, 2)
		req = f.hot[h%uint64(len(f.hot))]
		req.Workload.Seed = f.seed<<32 | uint64(seq) | 1<<31 // outside the hot seeds
		return classSimulate, req, 0
	}
	return classSimulate, f.hot[f.draws[prng.Hash3(f.seed, seq, 3)%uint64(len(f.draws))]], 0
}

func setupFleet(seed uint64) (*fleetRig, error) {
	docs, err := loadScenarios("scenarios")
	if err != nil {
		return nil, err
	}
	f := &fleetRig{seed: seed, hot: hotPopulation(seed), docs: docs}
	zipf := rand.NewZipf(rand.New(rand.NewSource(int64(seed))), 1.1, 1, uint64(len(f.hot)-1))
	f.draws = make([]int, zipfDraws)
	for i := range f.draws {
		f.draws[i] = int(zipf.Uint64())
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		srv := server.New(server.Config{Workers: 1})
		ep, err := listen(srv)
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, srv)
		f.wEps = append(f.wEps, ep)
		addrs = append(addrs, ep.addr)
	}
	f.coord = cluster.New(cluster.Config{Workers: addrs})
	f.coord.Start()
	if f.cEp, err = listen(f.coord); err != nil {
		f.close()
		return nil, err
	}
	f.snd = newSenders(f.cEp.addr)
	if err := f.snd.warm(); err != nil {
		f.close()
		return nil, err
	}
	// Warm every worker's cache with the hot population, and run each
	// scenario once so its code paths are loaded.
	ctx := context.Background()
	for _, req := range f.hot {
		if _, err := f.snd.clients[0].Simulate(ctx, req); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up simulate: %w", err)
		}
	}
	for _, d := range f.docs {
		if _, err := f.snd.clients[0].RunScenario(ctx, d.body); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up scenario %s: %w", d.name, err)
		}
	}
	return f, nil
}

func (f *fleetRig) close() {
	if f.snd != nil {
		f.snd.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if f.cEp != nil {
		f.cEp.close()
	}
	if f.coord != nil {
		f.coord.Shutdown(ctx)
	}
	for i, ep := range f.wEps {
		ep.close()
		f.workers[i].Shutdown(ctx)
	}
}

// setTracer switches every node between its plain and traced handler.
func (f *fleetRig) setTracer(t *tracer) {
	if t == nil {
		f.cEp.set(f.coord)
		for i, ep := range f.wEps {
			ep.set(f.workers[i])
		}
		return
	}
	f.cEp.set(t.wrapHandler("cluster", "", f.coord))
	for i, ep := range f.wEps {
		ep.set(t.wrapHandler("server", ep.addr, f.workers[i]))
	}
}

// runFleetHot is the `fleet-hot` workload: open-loop traffic through a
// dvsfleet coordinator, mostly cache hits, plus uncached scenarios.
func runFleetHot(rc runConfig) (*outcome, error) {
	o := newOutcome()
	f, err := timeSetup(o, func() (*fleetRig, error) { return setupFleet(rc.seed) }, (*fleetRig).close)
	if err != nil {
		return nil, err
	}
	defer f.close()
	x, vs := newResponses(), newResponses()
	send := func(t *tracer, sender, seq int) (int, bool, time.Time) {
		class, req, doc := f.request(seq)
		id := fmt.Sprintf("pb-%d", seq)
		c := f.snd.clients[sender]
		if class == classScenario {
			var v []byte
			var err error
			t.call(id, "scenario", func() int64 {
				v, err = c.RunScenario(requestCtx(id), f.docs[doc].body)
				return 0
			})
			done := time.Now()
			if err != nil {
				return class, false, done
			}
			vs.put(seq, sha256.Sum256(v))
			return class, true, done
		}
		var res server.SimResult
		var err error
		t.call(id, "simulate", func() int64 {
			res, err = c.Simulate(requestCtx(id), req)
			return res.WallNanos
		})
		done := time.Now()
		if err != nil {
			return class, false, done
		}
		x.put(seq, canonResult(res))
		return class, true, done
	}
	var tr *tracer
	var before []server.MetricsSnapshot
	var fleetBefore cluster.FleetSnapshot
	var beforeErr error
	addrs := []string{f.wEps[0].addr, f.wEps[1].addr}
	if rc.trace {
		tr = newTracer()
	}
	setTracer := func(t *tracer) {
		if t != nil {
			var err1, err2 error
			before, err1 = snapshots(addrs)
			fleetBefore, err2 = fleetCounters(f.cEp.addr)
			beforeErr = errors.Join(err1, err2)
		}
		f.setTracer(t)
	}
	rungs, traced := servingRun(rc, o, fleetPlan, tr, setTracer, send)
	rss := peakRSSMB()
	if rc.trace {
		after, err1 := snapshots(addrs)
		fleetAfter, err2 := fleetCounters(f.cEp.addr)
		if err := errors.Join(beforeErr, err1, err2); err != nil {
			return nil, err
		}
		serverLayer(o, before, after)
		o.metrics["cluster.failovers"] = float64(fleetAfter.Failovers - fleetBefore.Failovers)
	} else {
		o.metrics["peak_rss_mb"] = rss
		o.say("peak_rss_mb", rss, "MB")
	}

	simReq := func(seq int) server.SimRequest { _, req, _ := f.request(seq); return req }
	wrong := checkSimulate(o, tr, simReq, x.got)
	for seq := range checkVerdicts(o, f, vs.got) {
		wrong[seq] = true
	}
	reportServing(rc, o, fleetPlan, rungs, traced, wrong, fleetPlan.slo/2)
	if !rc.trace {
		nom := rungs[fleetPlan.nominal]
		lat, _ := nom.latencies(classScenario, wrong)
		tail, q := lat.tail()
		o.say("scenario_p50_ms", lat.median(), "ms")
		o.say(fmt.Sprintf("scenario_p%g_ms", q*100), tail, "ms")
		o.say("scenario_requests", float64(len(lat)), "count")
	} else {
		simLayers(o, tr)
		spanLayers(o, tr.snapshotSpans())
		if err := tr.writeSpans(rc.spans); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkVerdicts compares every scenario response with the verdict a
// local scenario.Execute produces for the same document, byte for
// byte (by digest), and returns the sequence numbers that differ.
func checkVerdicts(o *outcome, f *fleetRig, got map[int]digest) map[int]bool {
	refs := make([]digest, len(f.docs))
	for i, d := range f.docs {
		doc, errs := scenario.Parse(d.name, d.body)
		if len(errs) > 0 {
			o.mismatch("scenario %s: %v", d.name, errs[0])
			continue
		}
		v, err := scenario.Execute(context.Background(), doc)
		if err != nil {
			o.mismatch("scenario %s: %v", d.name, err)
			continue
		}
		refs[i] = sha256.Sum256(v.JSON())
	}
	wrong := map[int]bool{}
	for seq, d := range got {
		_, _, doc := f.request(seq)
		if d != refs[doc] {
			wrong[seq] = true
		}
	}
	if len(wrong) > 0 {
		o.mismatch("%d scenario verdicts differ from the local reference", len(wrong))
	}
	return wrong
}

// fleetCounters reads the coordinator's metrics snapshot.
func fleetCounters(addr string) (cluster.FleetSnapshot, error) {
	var s cluster.FleetSnapshot
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + addr + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("coordinator metrics: %s", resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}
