package server

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dvsslack/internal/obs"
	"dvsslack/internal/sim"
	"dvsslack/internal/snapshot"
)

// ErrDraining is returned for work submitted after shutdown began.
var ErrDraining = errors.New("server: draining, not accepting new work")

// errRunSettled answers a live-capture request that arrived after the
// run finished (its outcome, not a snapshot, is the record then).
var errRunSettled = errors.New("server: run already settled")

// captureResult is one answered snapshot request: the framed envelope
// or the reason there is none.
type captureResult struct {
	data []byte
	err  error
}

// runControl is the handle the job layer holds on one in-flight run.
// The executing worker polls it at every step boundary — the only
// points where the engine state is snapshottable — so a pause or a
// live capture lands within one scheduling event of the request, with
// the hot path paying two atomic loads per step. That holds while a
// resumed run replays its prefix too: the answer there is the
// envelope the run resumed from.
type runControl struct {
	pause atomic.Bool  // checkpoint-and-stop at the next boundary
	want  atomic.Int32 // pending live-capture requests

	mu      sync.Mutex
	settled bool
	final   captureResult // answer for captures after settling
	waiters []chan captureResult
}

// Pause asks the worker to snapshot and stop at its next boundary.
func (c *runControl) Pause() { c.pause.Store(true) }

// Capture asks for a snapshot without stopping the run. The returned
// channel receives exactly one result; a run that settles (finishes
// or pauses) before the next boundary answers with its final state —
// errRunSettled for a completed run, the pause envelope for a paused
// one.
func (c *runControl) Capture() <-chan captureResult {
	ch := make(chan captureResult, 1)
	c.mu.Lock()
	if c.settled {
		final := c.final
		c.mu.Unlock()
		ch <- final
		return ch
	}
	c.want.Add(1)
	c.waiters = append(c.waiters, ch)
	c.mu.Unlock()
	return ch
}

// answer delivers one live capture to every pending waiter (worker
// side). want and waiters move together under mu, so the worker's
// lock-free want check can overshoot by at most one harmless capture.
func (c *runControl) answer(data []byte, err error) {
	c.mu.Lock()
	ws := c.waiters
	c.waiters = nil
	c.want.Add(-int32(len(ws)))
	c.mu.Unlock()
	for _, ch := range ws {
		ch <- captureResult{data: data, err: err}
	}
}

// settle records the run's final capture answer (worker side) and
// releases anyone still waiting.
func (c *runControl) settle(data []byte, err error) {
	c.mu.Lock()
	if c.settled {
		c.mu.Unlock()
		return
	}
	c.settled = true
	c.final = captureResult{data: data, err: err}
	ws := c.waiters
	c.waiters = nil
	c.mu.Unlock()
	for _, ch := range ws {
		ch <- c.final
	}
}

// work is one queued simulation.
type work struct {
	req *SimRequest
	key string // cache + scenario key; "" disables caching for this run
	// snapshot, when non-nil, resumes the run from a checkpoint
	// envelope (replaying its prefix) instead of starting fresh.
	snapshot []byte
	// ctl, when non-nil, lets the job layer pause or live-capture the
	// run at step boundaries.
	ctl *runControl
	// sc is the submitting request's span context; the executing
	// worker parents its sim.run span under it (zero = no trace).
	sc obs.SpanContext
	// done receives exactly one outcome. Buffered so a worker never
	// blocks on a caller that gave up.
	done chan outcome
}

type outcome struct {
	res SimResult
	// ckpt is the pause envelope when the run was checkpointed instead
	// of finished (res is then meaningless).
	ckpt []byte
	err  error
}

// settle forwards a terminal answer to the run's control (if any), so
// capture waiters never hang on a run that exits without stepping.
func (w *work) settle(data []byte, err error) {
	if w.ctl != nil {
		w.ctl.settle(data, err)
	}
}

// pool executes simulations on a fixed set of worker goroutines fed
// by a bounded queue. Each run constructs its own policy, processor,
// and workload values from the wire request (SimRequest.Lower), so
// workers share no mutable simulation state — the pool is race-clean
// by construction rather than by locking.
type pool struct {
	queue  chan *work
	cache  *resultCache
	met    *metrics
	tracer *obs.Tracer
	flight *obs.FlightRecorder

	mu        sync.Mutex
	closed    bool
	producers sync.WaitGroup // callers inside a queue send
	workers   int
	depth     int // queue capacity
	workerWG  sync.WaitGroup
	closeOnce sync.Once
}

// newPool starts workers goroutines over a queue of queueDepth slots.
func newPool(workers, queueDepth int, cache *resultCache, met *metrics, tracer *obs.Tracer, flight *obs.FlightRecorder) *pool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < workers {
		queueDepth = workers * 64
	}
	p := &pool{
		queue:   make(chan *work, queueDepth),
		cache:   cache,
		met:     met,
		tracer:  tracer,
		flight:  flight,
		workers: workers,
		depth:   queueDepth,
	}
	p.workerWG.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.workerWG.Done()
	for w := range p.queue {
		p.met.enqueue(-1)
		p.met.running(1)
		w.done <- p.execute(w)
		p.met.running(-1)
	}
}

// execute runs one work item, consulting the cache on both sides of
// the simulation (a second identical request may have been queued
// before the first finished). Runs resuming from a snapshot skip the
// cache recheck — resume semantics, not memoization, are what the
// caller asked for. The engine is driven stepwise so a runControl can
// pause or live-capture the run at any step boundary.
func (p *pool) execute(w *work) outcome {
	if w.key != "" && w.snapshot == nil {
		if res, ok := p.cache.Recheck(w.key); ok {
			res.Cached = true
			res.WallNanos = 0
			w.settle(nil, errRunSettled)
			return outcome{res: res}
		}
	}
	// Decision flight recorder: chained after the auditor when both
	// are on. Observers are passive (they only read engine state the
	// callbacks already expose), so attaching one cannot change the
	// simulation's bytes — pinned by TestSimulateTracingInert.
	var fo *obs.FlightObserver
	var flight func(sim.Policy) sim.Observer
	if p.flight != nil {
		flight = func(pol sim.Policy) sim.Observer {
			fo = p.flight.Observer(pol)
			return fo
		}
	}
	cfg, aud, err := w.req.Lower(flight)
	if err != nil {
		w.settle(nil, err)
		return outcome{err: err}
	}
	start := time.Now()
	var env *snapshot.Envelope
	if w.snapshot != nil {
		if env, err = snapshot.Open(w.snapshot, w.key); err != nil {
			w.settle(nil, err)
			return outcome{err: err}
		}
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		w.settle(nil, err)
		return outcome{err: err}
	}
	if env != nil {
		// Replaying the prefix polls the control like the run below,
		// but the replay point has not moved, so a pause or a live
		// capture answers with the envelope being replayed.
		var stop func() bool
		if w.ctl != nil {
			stop = func() bool {
				if w.ctl.pause.Load() {
					return true
				}
				if w.ctl.want.Load() > 0 {
					w.ctl.answer(w.snapshot, nil)
				}
				return false
			}
		}
		reached, err := env.Replay(e, stop)
		if err != nil {
			w.settle(nil, err)
			return outcome{err: err}
		}
		if !reached {
			w.ctl.settle(w.snapshot, nil)
			return outcome{ckpt: w.snapshot}
		}
	}
	for e.Step() {
		if w.ctl == nil {
			continue
		}
		if w.ctl.pause.Load() {
			data := snapshot.Capture(w.key, e)
			w.ctl.settle(data, nil)
			return outcome{ckpt: data}
		}
		if w.ctl.want.Load() > 0 {
			w.ctl.answer(snapshot.Capture(w.key, e), nil)
		}
	}
	simRes, err := e.Finish()
	wall := time.Since(start)
	w.settle(nil, errRunSettled)
	p.met.simDone(cfg.Policy.Name(), simRes.Time, wall, err)
	p.emitSpans(w, cfg.Policy.Name(), fo, start, wall)
	if err != nil {
		return outcome{err: err}
	}
	res := ResultFromSim(simRes)
	res.WallNanos = wall.Nanoseconds()
	if aud != nil {
		rep := aud.Finish(simRes)
		res.Audited = true
		res.Violations = rep.Violations
		res.AuditTruncated = rep.Truncated
		p.met.auditDone(len(rep.Violations))
	}
	if w.key != "" {
		p.cache.Put(w.key, res)
	}
	return outcome{res: res}
}

// emitSpans records the run and engine-phase spans under the
// submitting request's span (no-op without a tracer or a traced
// request). Phase spans carry the per-path decision counts the flight
// observer accumulated, so the trace tree shows how much of the run
// the staircase / certificate fast paths absorbed.
func (p *pool) emitSpans(w *work, policy string, fo *obs.FlightObserver, start time.Time, wall time.Duration) {
	if p.tracer == nil || !w.sc.Valid() {
		return
	}
	attrs := map[string]string{"policy": policy}
	if fo != nil {
		attrs["decisions"] = strconv.FormatUint(fo.Dispatches, 10)
	}
	runSC := p.tracer.Emit(w.sc, "sim.run", start, wall, attrs)
	if fo == nil {
		return
	}
	for path := sim.PathUnknown; path <= sim.PathAdaptiveCap; path++ {
		if n := fo.PathCount(path); n > 0 {
			p.tracer.Emit(runSC, "engine."+path.String(), start, wall,
				map[string]string{"decisions": strconv.FormatUint(n, 10)})
		}
	}
}

// Depth returns the queue capacity (sizes the admission budget).
func (p *pool) Depth() int { return p.depth }

// Lookup serves req from the result cache without touching the
// queue. Admission control consults it first so an overloaded daemon
// keeps answering cached requests while shedding fresh simulations.
func (p *pool) Lookup(req *SimRequest) (SimResult, bool) {
	key, err := req.CacheKey()
	if err != nil || key == "" {
		return SimResult{}, false
	}
	res, ok := p.cache.Get(key)
	if !ok {
		return SimResult{}, false
	}
	res.Cached = true
	res.WallNanos = 0
	return res, true
}

// Do runs one request through the pool and waits for its outcome.
// The fast path serves cache hits without touching the queue. ctx
// cancellation abandons the wait (an already-queued run still
// executes and populates the cache).
func (p *pool) Do(ctx context.Context, req *SimRequest) (SimResult, error) {
	res, _, err := p.DoRun(ctx, req, nil, nil)
	return res, err
}

// DoRun is Do with checkpoint plumbing: snap, when non-nil, resumes
// the run from a snapshot envelope (skipping the cache fast path —
// the caller wants the remainder of that run, not a memoized result),
// and ctl, when non-nil, lets the caller pause or live-capture the
// run. A paused run returns a nil error and a non-nil envelope.
func (p *pool) DoRun(ctx context.Context, req *SimRequest, snap []byte, ctl *runControl) (SimResult, []byte, error) {
	key, err := req.CacheKey()
	if err != nil {
		key = "" // uncacheable, still runnable
	}
	if key != "" && snap == nil {
		if res, ok := p.cache.Get(key); ok {
			res.Cached = true
			res.WallNanos = 0
			if ctl != nil {
				ctl.settle(nil, errRunSettled)
			}
			return res, nil, nil
		}
	}
	w := &work{req: req, key: key, snapshot: snap, ctl: ctl, done: make(chan outcome, 1)}
	if sc, ok := obs.SpanContextFromContext(ctx); ok {
		w.sc = sc
	}

	// Register as a producer before sending: Drain closes the queue
	// only after every registered producer has finished its send, so
	// a blocked send can never race the close.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return SimResult{}, nil, ErrDraining
	}
	p.producers.Add(1)
	p.mu.Unlock()

	enqueued := false
	select {
	case p.queue <- w:
		p.met.enqueue(1)
		enqueued = true
	case <-ctx.Done():
	}
	p.producers.Done()
	if !enqueued {
		return SimResult{}, nil, ctx.Err()
	}

	select {
	case out := <-w.done:
		return out.res, out.ckpt, out.err
	case <-ctx.Done():
		return SimResult{}, nil, ctx.Err()
	}
}

// Drain stops accepting work and waits for queued and in-flight runs
// to finish, up to ctx's deadline. Safe to call more than once.
func (p *pool) Drain(ctx context.Context) error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()

	done := make(chan struct{})
	go func() {
		p.closeOnce.Do(func() {
			// Workers keep consuming, so pending producer sends
			// complete and the wait terminates.
			p.producers.Wait()
			close(p.queue)
		})
		p.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
