package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dvsslack/client"
	"dvsslack/internal/obs"
	"dvsslack/internal/par"
	"dvsslack/internal/policies"
	"dvsslack/internal/server"
)

// senderCount is the number of load-generator goroutines and keep-alive
// connections: one per core of the two-core box.
const senderCount = 2

// Request classes of the serving workloads.
const (
	classSimulate = 0
	classScenario = 1
)

// endpoint is one loopback HTTP listener the benchmark started. Its
// handler can be switched between the plain and the traced one.
type endpoint struct {
	addr   string
	hs     *http.Server
	h      atomic.Pointer[http.Handler]
	served chan struct{} // closed when Serve has returned
}

func listen(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{addr: ln.Addr().String(), served: make(chan struct{})}
	e.set(h)
	e.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*e.h.Load()).ServeHTTP(w, r)
	})}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln) // returns ErrServerClosed after close
	}()
	return e, nil
}

// close stops the listener and every connection, and waits for Serve
// to return.
func (e *endpoint) close() {
	e.hs.Close()
	<-e.served
}

// set replaces the handler requests are served by.
func (e *endpoint) set(h http.Handler) { e.h.Store(&h) }

// senders is the load generator's connection set: one client per
// sender, each limited to a single keep-alive connection.
type senders struct {
	clients    []*client.Client
	transports []*http.Transport
}

func newSenders(addr string) *senders {
	s := &senders{}
	for i := 0; i < senderCount; i++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		s.transports = append(s.transports, tr)
		s.clients = append(s.clients, client.New(addr).WithHTTPClient(&http.Client{Transport: tr}))
	}
	return s
}

// warm opens every sender's connection.
func (s *senders) warm() error {
	for _, c := range s.clients {
		if err := c.Healthy(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

func (s *senders) close() {
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
}

func requestCtx(id string) context.Context {
	return obs.ContextWithRequestID(context.Background(), id)
}

// canonResult is the digest of a simulate result's bytes with the
// serving metadata (wall_ns, cached) removed: what must equal the
// in-process reference. Only digests are kept, so a long run does not
// grow the heap the system under test shares with the benchmark.
func canonResult(r server.SimResult) digest {
	r.WallNanos = 0
	r.Cached = false
	b, _ := json.Marshal(r) // a SimResult always marshals
	return sha256.Sum256(b)
}

// digest is a SHA-256 of an output's canonical bytes.
type digest = [sha256.Size]byte

// computeReferences runs every request in-process and returns the
// canonical digest of server.ResultFromSim(sim.Run(cfg)) for each, the
// zero digest where the reference itself failed. It records a mismatch for every
// failure and every lpSHE deadline miss. The runs go through the
// tracer, so a traced run reports the sim, core and dvs layers on
// exactly the requests the system ran.
func computeReferences(o *outcome, tr *tracer, reqs []server.SimRequest) []digest {
	refs := make([]digest, len(reqs))
	errs := make([]error, len(reqs))
	missed := make([]bool, len(reqs))
	par.ForEach(senderCount, len(reqs), func(i int) error {
		cfg, err := reqs[i].Config()
		if err != nil {
			errs[i] = err
			return nil
		}
		res, err := tr.simRun(cfg)
		if err != nil {
			errs[i] = err
			return nil
		}
		refs[i] = canonResult(server.ResultFromSim(res))
		missed[i] = res.DeadlineMisses > 0 && isLpSHE(policies.SpecOf(res.Policy))
		return nil
	})
	for i := range reqs {
		if errs[i] != nil {
			o.mismatch("reference run of %s: %v", reqs[i].Policy, errs[i])
		}
		if missed[i] {
			o.mismatch("lpSHE missed a deadline (%s on %s)", reqs[i].Policy, reqs[i].TaskSet.Name)
		}
	}
	return refs
}

// checkSimulate compares every simulate response (by digest) with its
// in-process reference and returns the sequence numbers that differ.
// request regenerates a sequence number's request; identical requests
// are computed once.
func checkSimulate(o *outcome, tr *tracer, request func(seq int) server.SimRequest, got map[int]digest) map[int]bool {
	byKey := map[string]int{}
	var uniq []server.SimRequest
	var seqs [][]int
	for seq := range got {
		req := request(seq)
		key, err := server.ScenarioKey(&req)
		if err != nil {
			o.mismatch("request %d: no scenario key: %v", seq, err)
			continue
		}
		i, ok := byKey[key]
		if !ok {
			i = len(uniq)
			byKey[key] = i
			uniq = append(uniq, req)
			seqs = append(seqs, nil)
		}
		seqs[i] = append(seqs[i], seq)
	}
	refs := computeReferences(o, tr, uniq)
	wrong := map[int]bool{}
	for i := range uniq {
		for _, seq := range seqs[i] {
			if refs[i] == (digest{}) || got[seq] != refs[i] {
				wrong[seq] = true
			}
		}
	}
	if n := len(wrong); n > 0 {
		o.mismatch("%d simulate responses differ from the in-process reference", n)
	}
	return wrong
}

// responses records the digest of every response received.
type responses struct {
	mu  sync.Mutex
	got map[int]digest
}

func newResponses() *responses { return &responses{got: map[int]digest{}} }

func (x *responses) put(seq int, d digest) {
	x.mu.Lock()
	x.got[seq] = d
	x.mu.Unlock()
}

// ladderPlan is the rungs a serving run steps through. The last rung
// is a closed loop (rate +Inf): what it serves per second is the
// saturation throughput.
type ladderPlan struct {
	ladder  []float64 // rates (1/s); the last is +Inf
	share   []float64 // of the window, per rung
	nominal int       // index of the nominal rate
	slo     float64   // p99 limit of the simulate class (ms)
}

// seqStride separates the sequence numbers of successive rungs: rung i
// sends i<<20, i<<20+1, ..., so a workload can tell which rung a
// request belongs to. The traced rung is numbered len(ladder)+nominal.
const seqStride = 1 << 20

// rungOf returns the ladder index a sequence number belongs to.
func rungOf(seq int, plan ladderPlan) int { return (seq / seqStride) % len(plan.ladder) }

// servingRun executes a ladder (untraced) or, traced, the nominal rate
// untraced and then traced, calling setTracer between phases. It
// returns the untraced rungs and the traced rung (if any).
func servingRun(rc runConfig, o *outcome, plan ladderPlan, tr *tracer,
	setTracer func(*tracer), send func(t *tracer, sender, seq int) (int, bool, time.Time)) (untraced []rung, traced *rung) {

	step := func(index int, dur time.Duration, t *tracer) rung {
		rate := plan.ladder[index%len(plan.ladder)]
		fn := func(sender, s int) (int, bool, time.Time) { return send(t, sender, s) }
		if math.IsInf(rate, 1) {
			return closedLoop(dur, senderCount, index*seqStride, fn)
		}
		return openLoop(rate, dur, senderCount, index*seqStride, fn)
	}
	if !rc.trace {
		for i, share := range plan.share {
			untraced = append(untraced, step(i, time.Duration(share*float64(rc.seconds)), nil))
		}
		return untraced, nil
	}
	mem := startMem()
	untraced = append(untraced, step(plan.nominal, rc.seconds/2, nil))
	mem.report(o)
	setTracer(tr)
	r := step(len(plan.ladder)+plan.nominal, rc.seconds/2, tr)
	setTracer(nil)
	return untraced, &r
}

// reportServing fills the end-to-end (or loadgen) metrics of a serving
// run and prints every rung.
func reportServing(rc runConfig, o *outcome, plan ladderPlan, rungs []rung, traced *rung, wrong map[int]bool, lagLimit float64) {
	all := append([]rung(nil), rungs...)
	if traced != nil {
		all = append(all, *traced)
	}
	for _, r := range all {
		o.attempted += len(r.shots)
		for _, sh := range r.shots {
			if !sh.ok || wrong[sh.seq] {
				o.failed++
			}
		}
	}
	if rc.trace {
		lat, _ := rungs[0].latencies(classSimulate, wrong)
		tlat, _ := traced.latencies(classSimulate, wrong)
		o.metrics["trace.overhead_share"] = tlat.median()/lat.median() - 1
		o.metrics["loadgen.sent"] = float64(len(rungs[0].shots))
		o.metrics["loadgen.lag_ms_p99"] = rungs[0].lag.quantile(0.99)
		o.metrics["loadgen.backlog_max"] = float64(rungs[0].backlogMax)
		o.say("p50_ms (untraced)", lat.median(), "ms")
		o.say("p50_ms (traced)", tlat.median(), "ms")
		if rungs[0].lag.quantile(0.99) > lagLimit {
			o.mismatch("load generator fell behind at the nominal rate (lag p99 %.2f ms > %.2f ms): run invalid",
				rungs[0].lag.quantile(0.99), lagLimit)
		}
		return
	}
	lr := judge(rungs, classSimulate, plan.slo, lagLimit, senderCount, wrong)
	o.say("nominal_rps", plan.ladder[plan.nominal], "1/s")
	o.say("slo_p99_ms", plan.slo, "ms")
	for i, r := range rungs[:len(lr.meets)] {
		lat, failed := r.latencies(classSimulate, wrong)
		o.say(fmt.Sprintf("rung %4.0f/s p50_ms", r.rate), lat.median(), "ms")
		o.say(fmt.Sprintf("rung %4.0f/s p99_ms", r.rate), lr.p99[i], "ms")
		o.say(fmt.Sprintf("rung %4.0f/s lag_ms_p99", r.rate), r.lag.quantile(0.99), "ms")
		o.say(fmt.Sprintf("rung %4.0f/s backlog_max", r.rate), float64(r.backlogMax), "count")
		o.say(fmt.Sprintf("rung %4.0f/s failed", r.rate), float64(failed), "count")
		o.say(fmt.Sprintf("rung %4.0f/s meets_slo", r.rate), b2f(lr.meets[i]), "bool")
	}
	nom := rungs[plan.nominal]
	lat, _ := nom.latencies(classSimulate, wrong)
	o.metrics["p50_ms"] = lat.median()
	top := rungs[len(rungs)-1].served(wrong)
	o.say("p50_ms", lat.median(), "ms")
	o.say("p90_ms", lat.quantile(0.9), "ms")
	o.say("p95_ms", lat.quantile(0.95), "ms")
	o.say("p99_ms", lr.p99[plan.nominal], "ms")
	o.say("max_rps", lr.maxRPS, "1/s")
	o.say("saturation_rps", top, "1/s")
	o.say("failed_frac", float64(o.failed)/float64(max(o.attempted, 1)), "ratio")
	if !lr.valid[plan.nominal] {
		o.mismatch("load generator fell behind at the nominal rate (lag p99 %.2f ms > %.2f ms): run invalid",
			nom.lag.quantile(0.99), lagLimit)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// serverLayer reports the server counters over a window from snapshots
// of every dvsd taken before and after it.
func serverLayer(o *outcome, before, after []server.MetricsSnapshot) {
	var hits, misses, sims, shed float64
	for i := range after {
		hits += float64(after[i].CacheHits - before[i].CacheHits)
		misses += float64(after[i].CacheMisses - before[i].CacheMisses)
		sims += float64(after[i].SimsRun - before[i].SimsRun)
		shed += float64(after[i].Shed - before[i].Shed)
	}
	if hits+misses > 0 {
		o.metrics["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	o.metrics["server.sims_run"] = sims
	o.metrics["server.shed"] = shed
}

// snapshots reads every dvsd's metrics snapshot.
func snapshots(addrs []string) ([]server.MetricsSnapshot, error) {
	out := make([]server.MetricsSnapshot, len(addrs))
	for i, a := range addrs {
		m, err := client.New(a).Metrics(context.Background()) // bounded by client.DefaultCallTimeout
		if err != nil {
			return nil, fmt.Errorf("metrics of %s: %w", a, err)
		}
		out[i] = m
	}
	return out, nil
}
