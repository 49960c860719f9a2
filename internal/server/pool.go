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
)

// ErrDraining is returned for work submitted after shutdown began.
var ErrDraining = errors.New("server: draining, not accepting new work")

// errStopped is the outcome of a job run abandoned at a step
// boundary because its job was paused or cancelled.
var errStopped = errors.New("server: run stopped")

// work is one queued simulation.
type work struct {
	req *SimRequest
	key string // cache + scenario key; "" disables caching for this run
	// stop, when non-nil, abandons the run once it is closed: before
	// it starts, or at its next step boundary, leaving no result and
	// no cache entry. Job runs set it to their run context's Done;
	// synchronous runs leave it nil and always finish, so a run whose
	// caller gave up still fills the cache.
	stop <-chan struct{}
	// sc is the submitting request's span context; the executing
	// worker parents its sim.run span under it (zero = no trace).
	sc obs.SpanContext
	// done receives exactly one outcome. Buffered so a worker never
	// blocks on a caller that gave up.
	done chan outcome
}

// stopped reports whether w's stop channel is closed (never, when it
// is nil).
func (w *work) stopped() bool {
	select {
	case <-w.stop:
		return true
	default:
		return false
	}
}

type outcome struct {
	res SimResult
	err error
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
	pending   atomic.Int64   // items submitted and not yet answered
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
		out := p.execute(w)
		p.pending.Add(-1) // before the caller can see the outcome and drain
		w.done <- out
		p.met.running(-1)
	}
}

// execute runs one work item, consulting the cache on both sides of
// the simulation (a second identical request may have been queued
// before the first finished). A stoppable run checks its stop channel
// before it starts and at every step boundary.
func (p *pool) execute(w *work) outcome {
	if w.key != "" {
		if res, ok := p.cache.Recheck(w.key); ok {
			res.Cached = true
			res.WallNanos = 0
			return outcome{res: res}
		}
	}
	if w.stopped() {
		return outcome{err: errStopped}
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
		return outcome{err: err}
	}
	start := time.Now()
	e, err := sim.NewEngine(cfg)
	if err != nil {
		return outcome{err: err}
	}
	if w.stop != nil {
		for e.Step() {
			if w.stopped() {
				return outcome{err: errStopped}
			}
		}
	}
	simRes, err := e.Run() // the whole run, or only Finish after the loop
	wall := time.Since(start)
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
	return p.submit(ctx, req, nil)
}

// DoJob is Do for one run of a job: once ctx is done the run itself is
// abandoned too, before it starts or at its next step boundary, so a
// paused or cancelled job frees its workers at once.
func (p *pool) DoJob(ctx context.Context, req *SimRequest) (SimResult, error) {
	return p.submit(ctx, req, ctx.Done())
}

// submit runs req through the pool; stop is the work item's stop
// channel (nil: the run always finishes).
func (p *pool) submit(ctx context.Context, req *SimRequest, stop <-chan struct{}) (SimResult, error) {
	key, err := req.CacheKey()
	if err != nil {
		key = "" // uncacheable, still runnable
	}
	if key != "" {
		if res, ok := p.cache.Get(key); ok {
			res.Cached = true
			res.WallNanos = 0
			return res, nil
		}
	}
	w := &work{req: req, key: key, stop: stop, done: make(chan outcome, 1)}
	if sc, ok := obs.SpanContextFromContext(ctx); ok {
		w.sc = sc
	}

	// Register as a producer before sending: Drain closes the queue
	// only after every registered producer has finished its send, so
	// a blocked send can never race the close.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return SimResult{}, ErrDraining
	}
	p.producers.Add(1)
	p.pending.Add(1)
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
		p.pending.Add(-1)
		return SimResult{}, ctx.Err()
	}

	select {
	case out := <-w.done:
		return out.res, out.err
	case <-ctx.Done():
		return SimResult{}, ctx.Err()
	}
}

// Drain stops accepting work and waits for queued and in-flight runs
// to finish, up to ctx's deadline. A pool with nothing queued or in
// flight drains even under an expired ctx. Safe to call more than
// once.
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
	}
	if p.pending.Load() == 0 {
		// Closed and idle: no item can arrive, and the idle workers
		// are already on their way out.
		<-done
		return nil
	}
	return ctx.Err()
}
