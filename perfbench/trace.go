package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"dvsslack/internal/policies"
	"dvsslack/internal/sim"
)

// The traced run wraps the calls the benchmark makes into each layer.
// Request-level calls (client, coordinator, dvsd handler) become spans
// that share the request's X-Request-ID; per-decision calls into a
// policy or observer are far too frequent for spans and are summed
// into per-run timers instead.

// span is one timed call at a layer boundary.
type span struct {
	Req   string `json:"req"`
	Layer string `json:"layer"` // client | cluster | server
	Route string `json:"route"`
	Node  string `json:"node,omitempty"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
	// Child is the duration of work the callee reported itself
	// (the simulate response's wall_ns) when no span of ours covers it.
	Child int64 `json:"child_ns,omitempty"`
}

// tracer keeps spans and layer timers in memory until the run ends.
// A nil *tracer is the untraced configuration: every method is a no-op
// and every wrapper returns its argument unchanged.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	sim   simTimes
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since returns a span start offset relative to the tracer's origin.
func (t *tracer) since(start time.Time) int64 { return start.Sub(t.t0).Nanoseconds() }

// snapshotSpans returns a copy of the spans recorded so far.
func (t *tracer) snapshotSpans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshotSpans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrapHandler times every request h serves as a span of the given
// layer. Untraced, h is returned as is.
func (t *tracer) wrapHandler(layer, node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(span{
			Req: r.Header.Get("X-Request-ID"), Layer: layer, Route: routeOf(r), Node: node,
			Start: t.since(start), Dur: time.Since(start).Nanoseconds(),
		})
	})
}

// call times one client call as a span when traced; child is the
// callee-reported work (the simulate response's wall_ns), if any.
func (t *tracer) call(id, route string, f func() int64) {
	if t == nil {
		f()
		return
	}
	start := time.Now()
	child := f()
	t.record(span{Req: id, Layer: "client", Route: route, Start: t.since(start),
		Dur: time.Since(start).Nanoseconds(), Child: child})
}

// routeOf names a dvsd/dvsfleet route the way their metrics do.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/simulate":
		return "simulate"
	case p == "/v1/scenario":
		return "scenario"
	case p == "/v1/jobs/restore":
		return "jobs.restore"
	case p == "/v1/jobs" && r.Method == http.MethodPost:
		return "jobs.create"
	case strings.HasSuffix(p, "/checkpoint"):
		return "jobs.checkpoint"
	case strings.HasSuffix(p, "/events"):
		return "jobs.events"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "jobs.get"
	}
	return "other"
}

// --- per-decision timers ---

// sampleEvery is the per-decision timers' sampling period: each
// method's every sampleEvery-th call is timed and the time scaled up,
// so the clock reads cost a quarter of what timing every call would.
const sampleEvery = 4

// methodTimer estimates the total time spent in one method.
type methodTimer struct {
	calls int64
	d     time.Duration // estimated total
}

// begin counts a call and returns its start time if it is sampled.
func (m *methodTimer) begin() (time.Time, bool) {
	m.calls++
	if m.calls%sampleEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (m *methodTimer) end(start time.Time, sampled bool) {
	if sampled {
		m.d += sampleEvery * time.Since(start)
	}
}

// runTimes accumulates one simulation run's time inside the policy and
// the observer. A run is single-goroutine, so no locking is needed
// until the totals are merged into the tracer.
type runTimes struct {
	sel      methodTimer // SelectSpeed
	hooks    methodTimer // every other sim.Policy method
	observer methodTimer
}

// simTimes aggregates runTimes over every traced run, by policy.
type simTimes struct {
	runs      int64
	decisions int64
	runTime   time.Duration
	policy    time.Duration
	observer  time.Duration
	sel       map[string]time.Duration // by policy spec
	selects   map[string]int64
	counters  map[string]float64 // lpSHE PolicyCounters, summed
}

// simRun executes cfg with its policy and observer wrapped in sampled timers
// and folds the run's totals into the tracer. Untraced, it is sim.Run.
func (t *tracer) simRun(cfg sim.Config) (sim.Result, error) {
	if t == nil {
		return sim.Run(cfg)
	}
	rt := &runTimes{}
	spec := policies.SpecOf(cfg.Policy.Name())
	cfg.Policy = wrapPolicy(cfg.Policy, rt)
	if cfg.Observer != nil {
		cfg.Observer = &timedObserver{inner: cfg.Observer, t: rt}
	}
	start := time.Now()
	res, err := sim.Run(cfg)
	wall := time.Since(start)

	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.sim
	if s.sel == nil {
		s.sel = map[string]time.Duration{}
		s.selects = map[string]int64{}
		s.counters = map[string]float64{}
	}
	s.runs++
	s.decisions += int64(res.Decisions)
	s.runTime += wall
	s.policy += rt.sel.d + rt.hooks.d
	s.observer += rt.observer.d
	s.sel[spec] += rt.sel.d
	s.selects[spec] += rt.sel.calls
	if isLpSHE(spec) {
		for _, k := range []string{"decisions", "decision_fast_path", "slack_calls", "slack_scanned"} {
			s.counters[k] += res.PolicyCounters[k]
		}
	}
	return res, err
}

// isLpSHE reports whether a policy spec is the paper's algorithm (any
// variant, any wrapper): the `core` layer.
func isLpSHE(spec string) bool { return strings.HasPrefix(spec, "lpshe") }

// timedPolicy forwards every sim.Policy method to inner, timing it.
type timedPolicy struct {
	inner sim.Policy
	t     *runTimes
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Reset(sys sim.System) {
	start, on := p.t.hooks.begin()
	p.inner.Reset(sys)
	p.t.hooks.end(start, on)
}

func (p *timedPolicy) SelectSpeed(j *sim.JobState) float64 {
	start, on := p.t.sel.begin()
	s := p.inner.SelectSpeed(j)
	p.t.sel.end(start, on)
	return s
}

func (p *timedPolicy) OnRelease(j *sim.JobState) {
	start, on := p.t.hooks.begin()
	p.inner.OnRelease(j)
	p.t.hooks.end(start, on)
}

func (p *timedPolicy) OnComplete(j *sim.JobState) {
	start, on := p.t.hooks.begin()
	p.inner.OnComplete(j)
	p.t.hooks.end(start, on)
}

func (p *timedPolicy) OnAdvance(dt float64) {
	start, on := p.t.hooks.begin()
	p.inner.OnAdvance(dt)
	p.t.hooks.end(start, on)
}

// The engine and the flight recorder discover optional behaviour by
// type assertion, so the wrapper must implement exactly the optional
// interfaces the wrapped policy does: one type per combination.

type repacer struct{ *timedPolicy }

func (p repacer) NextCheck(j *sim.JobState) float64 {
	start, on := p.t.hooks.begin()
	v := p.inner.(sim.Repacer).NextCheck(j)
	p.t.hooks.end(start, on)
	return v
}

type instrumented struct{ *timedPolicy }

func (p instrumented) Counters() map[string]float64 {
	return p.inner.(sim.Instrumented).Counters()
}

type explainer struct{ *timedPolicy }

func (p explainer) LastDecision() sim.DecisionInfo {
	return p.inner.(sim.DecisionExplainer).LastDecision()
}

type (
	policyR  struct{ repacer }
	policyI  struct{ instrumented }
	policyD  struct{ explainer }
	policyRI struct {
		*timedPolicy
		repacer
		instrumented
	}
	policyRD struct {
		*timedPolicy
		repacer
		explainer
	}
	policyID struct {
		*timedPolicy
		instrumented
		explainer
	}
	policyRID struct {
		*timedPolicy
		repacer
		instrumented
		explainer
	}
)

// wrapPolicy returns p behind a timer, implementing exactly the
// optional interfaces (Repacer, Instrumented, DecisionExplainer) p does.
func wrapPolicy(p sim.Policy, t *runTimes) sim.Policy {
	b := &timedPolicy{inner: p, t: t}
	_, r := p.(sim.Repacer)
	_, i := p.(sim.Instrumented)
	_, d := p.(sim.DecisionExplainer)
	switch {
	case r && i && d:
		return policyRID{b, repacer{b}, instrumented{b}, explainer{b}}
	case r && i:
		return policyRI{b, repacer{b}, instrumented{b}}
	case r && d:
		return policyRD{b, repacer{b}, explainer{b}}
	case i && d:
		return policyID{b, instrumented{b}, explainer{b}}
	case r:
		return policyR{repacer{b}}
	case i:
		return policyI{instrumented{b}}
	case d:
		return policyD{explainer{b}}
	}
	return b
}

// timedObserver forwards every sim.Observer callback, timing it.
type timedObserver struct {
	inner sim.Observer
	t     *runTimes
}

func (o *timedObserver) ObserveRelease(t float64, j *sim.JobState) {
	start, on := o.t.observer.begin()
	o.inner.ObserveRelease(t, j)
	o.t.observer.end(start, on)
}

func (o *timedObserver) ObserveDispatch(t float64, j *sim.JobState, speed float64) {
	start, on := o.t.observer.begin()
	o.inner.ObserveDispatch(t, j, speed)
	o.t.observer.end(start, on)
}

func (o *timedObserver) ObserveComplete(t float64, j *sim.JobState, missed bool) {
	start, on := o.t.observer.begin()
	o.inner.ObserveComplete(t, j, missed)
	o.t.observer.end(start, on)
}

func (o *timedObserver) ObserveIdle(t0, t1 float64) {
	start, on := o.t.observer.begin()
	o.inner.ObserveIdle(t0, t1)
	o.t.observer.end(start, on)
}

func (o *timedObserver) ObserveSwitch(t, from, to float64) {
	start, on := o.t.observer.begin()
	o.inner.ObserveSwitch(t, from, to)
	o.t.observer.end(start, on)
}
