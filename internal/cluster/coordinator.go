package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dvsslack/client"
	"dvsslack/internal/obs"
	"dvsslack/internal/scenario"
	"dvsslack/internal/server"
)

// Config tunes the coordinator.
type Config struct {
	// Workers is the initial worker address list (host:port). Workers
	// join the routing ring on their first successful /readyz probe.
	Workers []string
	// HealthInterval is the period of the active health checker
	// (default 500ms).
	HealthInterval time.Duration
	// MaxBodyBytes bounds request bodies; <= 0 selects 32 MiB.
	MaxBodyBytes int64
	// Logger receives structured request and lifecycle logs; nil
	// discards them.
	Logger *slog.Logger
	// Kill, when non-nil, enables POST /v1/cluster/kill?worker=addr —
	// hard-stopping a worker to exercise failover. Embedded clusters
	// (cmd/dvsfleet -embedded) and tests wire it; production
	// coordinators leave it nil and the endpoint answers 404.
	Kill func(addr string) error
	// Tracer, when non-nil, records coordinator spans (handler +
	// per-attempt routing) into its ring; GET /debug/trace then also
	// collects every worker's span dump so one trace renders as a
	// single tree. Propagation of inbound traceparent headers happens
	// regardless, so tracing stays inert to request bytes.
	Tracer *obs.Tracer
	// CheckpointDir makes fleet jobs durable as server.Config's makes
	// dvsd's: Shutdown checkpoints stragglers into it, and
	// RecoverCheckpoints resumes them (cmd/dvsfleet -checkpoint-dir).
	CheckpointDir string
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	return c
}

const (
	// healthTimeout bounds one /readyz probe, and one worker's answer
	// to a federated /metrics.prom or /debug/trace collection.
	healthTimeout = 2 * time.Second
	// failThreshold is the consecutive probe failures that mark a
	// worker down. Routing-time transport errors mark a worker down
	// immediately regardless (passive detection).
	failThreshold = 2
)

// ErrNoWorkers is returned when no worker is available to serve a
// routed request.
var ErrNoWorkers = errors.New("cluster: no ready workers")

// Coordinator is the dvsfleet control plane: an http.Handler speaking
// the dvsd wire protocol, routing scenarios onto workers by
// consistent hash of the canonical scenario key
// (server.ScenarioKey), with health-checked membership, failover,
// cordon semantics, and fleet-wide job fan-out.
type Coordinator struct {
	cfg    Config
	log    *slog.Logger
	ring   *Ring
	met    *fleetMetrics
	tracer *obs.Tracer

	mu      sync.RWMutex
	workers map[string]*worker

	handler http.Handler
	front   *server.Front

	draining   atomic.Bool
	healthCtx  context.Context
	healthStop context.CancelFunc
	healthDone chan struct{}
	started    atomic.Bool
}

// New builds a coordinator over the configured workers. Call Start to
// probe them and begin health checking.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		ring:    NewRing(DefaultReplicas),
		workers: map[string]*worker{},
		tracer:  cfg.Tracer,
	}
	c.log = cfg.Logger
	if c.log == nil {
		c.log = obs.Discard()
	}
	for _, addr := range cfg.Workers {
		c.workers[addr] = newWorker(addr)
	}
	c.met = newFleetMetrics(c)
	c.healthCtx, c.healthStop = context.WithCancel(context.Background())
	c.healthDone = make(chan struct{})
	c.front = &server.Front{
		Edge: server.Edge{
			Service: "dvsfleet",
			Tracer:  c.tracer,
			Log:     c.log,
			Record: func(label string, ok bool, dur time.Duration, _ bool) {
				c.met.request(label, ok)
				c.met.httpDone(label, dur)
			},
		},
		// Fleet jobs keep 4× the worker count of runs in flight: enough
		// to keep every worker's pool busy, while each dvsd's own
		// admission control bounds what any one worker takes.
		Jobs: server.NewJobStore("fj", func() int { return 4 * c.workerCount() }, c.runJob,
			c.met.jobsCreated, c.met.jobsFinished, nil),
		Base:          context.Background(),
		Draining:      &c.draining,
		NotReady:      c.notReady,
		MaxBodyBytes:  cfg.MaxBodyBytes,
		Count:         c.met.request,
		Checkpoints:   c.met.checkpoints,
		Restores:      c.met.restores,
		CheckpointDir: cfg.CheckpointDir,
	}

	mux := http.NewServeMux()
	edge := &c.front.Edge
	c.front.Mount(mux)
	mux.HandleFunc("POST /v1/simulate", edge.Instrument("simulate", c.handleSimulate))
	mux.HandleFunc("POST /v1/scenario", edge.Instrument("scenario", c.handleScenario))
	mux.HandleFunc("GET /v1/cluster", edge.Instrument("cluster", c.handleCluster))
	mux.HandleFunc("POST /v1/cluster/cordon", edge.Instrument("cluster.cordon", c.handleCordon))
	mux.HandleFunc("POST /v1/cluster/uncordon", edge.Instrument("cluster.uncordon", c.handleUncordon))
	if cfg.Kill != nil {
		mux.HandleFunc("POST /v1/cluster/kill", edge.Instrument("cluster.kill", c.handleKill))
	}
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /metrics.prom", c.handleMetricsProm)
	mux.HandleFunc("GET /debug/trace", c.handleTraceDump)
	c.handler = mux
	return c
}

// Start probes every worker once (synchronously, so callers observe a
// routable fleet when healthy workers exist) and launches the
// periodic health checker. Safe to call once.
func (c *Coordinator) Start() {
	if !c.started.CompareAndSwap(false, true) {
		return
	}
	c.probeAll()
	go c.healthLoop()
}

// Handler returns the coordinator's HTTP entry point.
func (c *Coordinator) Handler() http.Handler { return c.handler }

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.handler.ServeHTTP(w, r) }

// Shutdown drains the fleet jobs through dvsd's own job drain
// (server.Front.Drain), then stops the health checker. The caller
// closes the HTTP listener first, and drains the workers afterwards
// (the coordinator does not own worker processes — except in embedded
// mode, where cmd/dvsfleet drains them).
func (c *Coordinator) Shutdown(ctx context.Context) error {
	return c.front.Drain(ctx, func(context.Context) error {
		c.healthStop()
		if c.started.Load() {
			<-c.healthDone
		}
		return nil
	})
}

// RecoverCheckpoints resumes the fleet jobs an earlier coordinator
// checkpointed into CheckpointDir. Call it after Start, so the resumed
// runs find a routable fleet.
func (c *Coordinator) RecoverCheckpoints() (int, error) { return c.front.RecoverCheckpoints() }

// --- membership and health ---

// AddWorker registers a new worker address at runtime; it joins the
// ring on its first successful probe.
func (c *Coordinator) AddWorker(addr string) {
	c.mu.Lock()
	if _, dup := c.workers[addr]; dup {
		c.mu.Unlock()
		return
	}
	c.workers[addr] = newWorker(addr)
	c.mu.Unlock()
	c.log.Info("cluster: worker added", "worker", addr)
}

// worker returns the registered worker for addr.
func (c *Coordinator) worker(addr string) (*worker, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	w, ok := c.workers[addr]
	return w, ok
}

// workerList returns every registered worker, address-sorted.
func (c *Coordinator) workerList() []*worker {
	c.mu.RLock()
	out := make([]*worker, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, w)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(a, b int) bool { return out[a].addr < out[b].addr })
	return out
}

func (c *Coordinator) workerCount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.workers)
}

func (c *Coordinator) healthyCount() int {
	n := 0
	for _, w := range c.workerList() {
		if w.State() == WorkerHealthy {
			n++
		}
	}
	return n
}

// WorkerInfos returns every worker's status, address-sorted.
func (c *Coordinator) WorkerInfos() []WorkerInfo {
	ws := c.workerList()
	out := make([]WorkerInfo, 0, len(ws))
	for _, w := range ws {
		w.mu.Lock()
		info := WorkerInfo{
			Addr:        w.addr,
			State:       w.state,
			InRing:      c.ring.Has(w.addr),
			ConsecFails: w.consecFails,
			LastError:   w.lastErr,
			Routed:      uint64(c.met.routed.With(w.addr).Value()),
			FailedOver:  uint64(c.met.failovers.With(w.addr).Value()),
		}
		if !w.lastChecked.IsZero() {
			info.LastChecked = w.lastChecked.UTC().Format(time.RFC3339Nano)
		}
		w.mu.Unlock()
		out = append(out, info)
	}
	return out
}

// healthLoop runs the active checker until Shutdown.
func (c *Coordinator) healthLoop() {
	defer close(c.healthDone)
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.healthCtx.Done():
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

// probeAll health-checks every worker concurrently.
func (c *Coordinator) probeAll() {
	var wg sync.WaitGroup
	for _, w := range c.workerList() {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			c.probe(w)
		}(w)
	}
	wg.Wait()
}

// probe runs one /readyz check and applies the state transition:
// success heals a down/draining worker back into the ring; a draining
// 503 evicts it immediately (the worker said so itself); other
// failures evict after failThreshold consecutive misses. Cordoned
// workers are probed for status but never rejoin the ring.
func (c *Coordinator) probe(w *worker) {
	ctx, cancel := context.WithTimeout(c.healthCtx, healthTimeout)
	err := w.Ready(ctx)
	cancel()

	w.mu.Lock()
	w.lastChecked = time.Now()
	if err == nil {
		w.consecFails = 0
		w.lastErr = ""
		prev := w.state
		if prev != WorkerCordoned {
			w.state = WorkerHealthy
		}
		w.mu.Unlock()
		if prev != WorkerCordoned && !c.ring.Has(w.addr) {
			c.ring.Add(w.addr)
			if prev != WorkerHealthy {
				c.log.Info("cluster: worker joined ring", "worker", w.addr, "was", prev)
			}
		}
		return
	}
	w.consecFails++
	w.lastErr = err.Error()
	fails, prev := w.consecFails, w.state
	next := prev
	var apiErr *client.APIError
	switch {
	case prev == WorkerCordoned:
		// keep the manual state
	case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusServiceUnavailable:
		next = WorkerDraining
	case fails >= failThreshold:
		next = WorkerDown
	}
	w.state = next
	w.mu.Unlock()
	if next != prev && next != WorkerCordoned {
		c.ring.Remove(w.addr)
		c.log.Warn("cluster: worker left ring", "worker", w.addr, "state", next, "err", err.Error())
	}
}

// markDownPassive evicts a worker on a routing-time transport error
// without waiting for the health checker — the in-flight request has
// already proven the worker unreachable. The checker heals it back in
// once /readyz answers again.
func (c *Coordinator) markDownPassive(w *worker, err error) {
	w.mu.Lock()
	if w.consecFails < failThreshold {
		w.consecFails = failThreshold
	}
	w.lastErr = err.Error()
	prev := w.state
	if prev != WorkerCordoned {
		w.state = WorkerDown
	}
	w.mu.Unlock()
	c.ring.Remove(w.addr)
	if prev != WorkerDown {
		c.log.Warn("cluster: worker marked down (transport error)", "worker", w.addr, "err", err.Error())
	}
}

// Cordon removes a worker from the ring until Uncordon, keeping its
// health tracked. Returns false for unknown addresses.
func (c *Coordinator) Cordon(addr string) bool {
	w, ok := c.worker(addr)
	if !ok {
		return false
	}
	w.setState(WorkerCordoned)
	c.ring.Remove(addr)
	c.log.Info("cluster: worker cordoned", "worker", addr)
	return true
}

// Uncordon lifts a cordon and synchronously re-probes the worker so a
// healthy one rejoins the ring before the call returns. Returns false
// for unknown addresses.
func (c *Coordinator) Uncordon(addr string) bool {
	w, ok := c.worker(addr)
	if !ok {
		return false
	}
	if w.setState(WorkerDown) == WorkerCordoned {
		c.log.Info("cluster: worker uncordoned", "worker", addr)
	}
	c.probe(w)
	return true
}

// --- routing ---

// candidates returns the failover sequence for key: the in-ring
// workers in consistent-hash order (the first owns the key; the rest
// are its successors).
func (c *Coordinator) candidates(key string) []string {
	return c.ring.Successors(key, 0)
}

// routeSpan opens one per-attempt routing span under the request's
// span and threads the attempt's span context into the returned
// context, so the worker call's Traceparent header parents the worker
// handler span under exactly the attempt that reached it. When
// nothing is being recorded the context passes through unchanged —
// the request's own span context (if any) still propagates.
func (c *Coordinator) routeSpan(ctx context.Context, addr string, attempt int) (context.Context, *obs.Span) {
	parent, _ := obs.SpanContextFromContext(ctx)
	span := c.tracer.StartSpan(parent, "fleet.route") // nil-safe
	span.SetAttr("worker", addr)
	span.SetAttr("attempt", strconv.Itoa(attempt))
	if sc := span.Context(); sc.Valid() {
		ctx = obs.ContextWithSpanContext(ctx, sc)
	}
	return ctx, span
}

// finishRouteSpan closes an attempt span with its outcome.
func finishRouteSpan(span *obs.Span, err error) {
	if span == nil {
		return
	}
	if err == nil {
		span.SetAttr("outcome", "ok")
	} else {
		span.SetAttr("outcome", "error")
		span.SetAttr("error", err.Error())
	}
	span.End()
}

// route runs one call against the fleet: the key's owner first, then
// its ring successors on worker-side failures. Request faults (4xx)
// and the request's own expired deadline propagate immediately —
// another node cannot answer a request the worker rejected as invalid,
// nor beat the client's deadline.
func (c *Coordinator) route(ctx context.Context, key string, call func(context.Context, *worker) error) error {
	cands := c.candidates(key)
	if len(cands) == 0 {
		c.met.proxyErrors.Inc()
		return ErrNoWorkers
	}
	var lastErr error
	for i, addr := range cands {
		w, ok := c.worker(addr)
		if !ok {
			continue
		}
		callCtx, span := c.routeSpan(ctx, addr, i)
		err := call(callCtx, w)
		finishRouteSpan(span, err)
		if err == nil {
			c.met.routed.With(addr).Inc()
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return err
		}
		var apiErr *client.APIError
		if errors.As(err, &apiErr) {
			switch {
			case apiErr.StatusCode == http.StatusTooManyRequests:
				// Shed by admission control: the worker is alive but
				// saturated. Spill to the next worker (losing cache
				// affinity for one request beats queueing behind an
				// overload), leaving ring membership to the checker.
				c.met.retries.Inc()
				continue
			case apiErr.StatusCode == http.StatusServiceUnavailable &&
				apiErr.Message == server.ErrDeadlineExceeded.Error():
				// The worker ran out the deadline the client gave
				// this request: a second worker would too.
				return err
			case apiErr.StatusCode >= 500:
				// Draining, or a worker-side fault (panic recovery,
				// proxy error): fail over without eviction — the next
				// probe decides, and the fault may be specific to this
				// request.
				c.met.failovers.With(addr).Inc()
				continue
			default:
				// 4xx: the request itself is at fault.
				return err
			}
		}
		// Transport error: the worker is unreachable. Evict now so the
		// rest of this grid's keys re-route without paying a dial
		// timeout each, and fail this request over.
		c.markDownPassive(w, err)
		c.met.failovers.With(addr).Inc()
	}
	c.met.proxyErrors.Inc()
	return fmt.Errorf("cluster: all %d candidate workers failed: %w", len(cands), lastErr)
}

// routeSimulate routes one simulation by its scenario key. A request
// that cannot be keyed but is still runnable routes as the empty key
// (one fixed owner) rather than failing.
func (c *Coordinator) routeSimulate(ctx context.Context, req *server.SimRequest) (server.SimResult, error) {
	key, err := server.ScenarioKey(req)
	if err != nil {
		key = ""
	}
	var res server.SimResult
	err = c.route(ctx, key, func(ctx context.Context, w *worker) (err error) {
		res, err = w.c.Simulate(ctx, *req)
		return err
	})
	return res, err
}

// writeRouteError maps a routing failure onto the dvsd wire protocol,
// preserving worker status codes and Retry-After hints so clients
// behave identically against coordinator and single daemon.
func writeRouteError(w http.ResponseWriter, err error) {
	var apiErr *client.APIError
	switch {
	case errors.As(err, &apiErr):
		if apiErr.RetryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprint(int(apiErr.RetryAfter.Seconds())))
		}
		server.WriteError(w, apiErr.StatusCode, "%s", apiErr.Message)
	case errors.Is(err, ErrNoWorkers):
		w.Header().Set("Retry-After", server.DrainRetryAfter)
		server.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		w.Header().Set("Retry-After", server.ShedRetryAfter)
		server.WriteError(w, http.StatusServiceUnavailable, "%v", server.ErrDeadlineExceeded)
	case errors.Is(err, context.Canceled):
		server.WriteError(w, http.StatusRequestTimeout, "%v", err)
	default:
		w.Header().Set("Retry-After", server.ShedRetryAfter)
		server.WriteError(w, http.StatusBadGateway, "%v", err)
	}
}

// --- handlers ---

// handleSimulate proxies POST /v1/simulate: validate locally (a bad
// scenario never costs a worker round-trip), route by scenario key,
// fail over on worker faults.
func (c *Coordinator) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if c.front.RejectIfDraining(w) {
		return
	}
	var req server.SimRequest
	if !server.DecodeBody(w, r, c.cfg.MaxBodyBytes, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := c.routeSimulate(r.Context(), &req)
	if err != nil {
		writeRouteError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, res)
}

// handleScenario proxies POST /v1/scenario: parse and validate the
// document locally (an invalid document never costs a worker
// round-trip, and the 400 lists every error just as dvsd's would),
// route the raw body by the document's canonical key, and stream the
// worker's verdict bytes through verbatim.
func (c *Coordinator) handleScenario(w http.ResponseWriter, r *http.Request) {
	if c.front.RejectIfDraining(w) {
		return
	}
	doc, body, ok := server.ReadScenario(w, r, c.cfg.MaxBodyBytes)
	if !ok {
		return
	}
	// The document's canonical key routes it, so re-submitting the same
	// document lands on the same worker.
	var verdict []byte
	err := c.route(r.Context(), scenario.DocKey(doc), func(ctx context.Context, wk *worker) (err error) {
		verdict, err = wk.c.RunScenario(ctx, body)
		return err
	})
	if err != nil {
		writeRouteError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(verdict)
}

// runJob is the fleet job store's per-run function. Each run routes
// by its own scenario key, so a sweep spreads over the whole fleet
// with per-run cache affinity instead of parking on one worker, and
// fails over like any simulate request. Simulations are deterministic
// and the store merges outcomes in submission order, so a fleet job's
// results match the same batch on one dvsd whatever the worker count,
// fan-out width or mid-job failover.
func (c *Coordinator) runJob(ctx context.Context, req *server.SimRequest) (server.SimResult, error) {
	c.met.fanoutRuns.Inc()
	return c.routeSimulate(ctx, req)
}

// ClusterInfo is the wire form of GET /v1/cluster.
type ClusterInfo struct {
	Workers        []WorkerInfo `json:"workers"`
	HealthyWorkers int          `json:"healthy_workers"`
	RingNodes      int          `json:"ring_nodes"`
	RingReplicas   int          `json:"ring_replicas"`
	Draining       bool         `json:"draining,omitempty"`
}

func (c *Coordinator) clusterInfo() ClusterInfo {
	return ClusterInfo{
		Workers:        c.WorkerInfos(),
		HealthyWorkers: c.healthyCount(),
		RingNodes:      c.ring.Len(),
		RingReplicas:   c.ring.replicas,
		Draining:       c.draining.Load(),
	}
}

func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.clusterInfo())
}

// workerParam resolves the ?worker=addr query of the admin endpoints.
func (c *Coordinator) workerParam(w http.ResponseWriter, r *http.Request) (string, bool) {
	addr := r.URL.Query().Get("worker")
	if addr == "" {
		server.WriteError(w, http.StatusBadRequest, "cluster: missing worker query parameter")
		return "", false
	}
	if _, ok := c.worker(addr); !ok {
		server.WriteError(w, http.StatusNotFound, "cluster: unknown worker %q", addr)
		return "", false
	}
	return addr, true
}

func (c *Coordinator) handleCordon(w http.ResponseWriter, r *http.Request) {
	addr, ok := c.workerParam(w, r)
	if !ok {
		return
	}
	c.Cordon(addr)
	server.WriteJSON(w, http.StatusOK, c.clusterInfo())
}

func (c *Coordinator) handleUncordon(w http.ResponseWriter, r *http.Request) {
	addr, ok := c.workerParam(w, r)
	if !ok {
		return
	}
	c.Uncordon(addr)
	server.WriteJSON(w, http.StatusOK, c.clusterInfo())
}

func (c *Coordinator) handleKill(w http.ResponseWriter, r *http.Request) {
	addr, ok := c.workerParam(w, r)
	if !ok {
		return
	}
	if err := c.cfg.Kill(addr); err != nil {
		server.WriteError(w, http.StatusInternalServerError, "cluster: kill %s: %v", addr, err)
		return
	}
	c.log.Warn("cluster: worker killed by request", "worker", addr)
	server.WriteJSON(w, http.StatusOK, map[string]string{"killed": addr})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.met.snapshot(c))
}

// handleMetricsProm federates the fleet's Prometheus text metrics:
// the coordinator's own families (unlabeled) merged with a live
// scrape of every worker's /metrics.prom, each worker's samples
// tagged worker="addr". Families come out name-sorted with per-source
// sample order preserved, so the merged page still satisfies
// obs.ValidateExposition. Unreachable workers are skipped — a dead
// worker must not take the fleet's scrape down with it.
func (c *Coordinator) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	var own bytes.Buffer
	c.met.writeProm(&own)
	sources := []obs.ExpositionSource{{Label: "", Text: own.String()}}
	for _, wk := range c.workerList() {
		ctx, cancel := context.WithTimeout(r.Context(), healthTimeout)
		raw, err := wk.c.MetricsProm(ctx)
		cancel()
		if err != nil {
			continue
		}
		sources = append(sources, obs.ExpositionSource{Label: wk.addr, Text: string(raw)})
	}
	var buf bytes.Buffer
	if err := obs.MergeExpositions(&buf, "worker", sources); err != nil {
		server.WriteError(w, http.StatusInternalServerError, "cluster: merging fleet metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	w.Write(buf.Bytes())
}

// FleetTraceDump is the JSON document served by the coordinator's
// GET /debug/trace: its own span ring plus every reachable worker's,
// so one trace ID can be followed across the whole fleet from a
// single endpoint.
type FleetTraceDump struct {
	Coordinator obs.TraceDump            `json:"coordinator"`
	Workers     map[string]obs.TraceDump `json:"workers"`
	Errors      map[string]string        `json:"errors,omitempty"`
	// Spans is every span above merged and re-sorted (start time, then
	// span ID) — the flat list a trace viewer or test walks.
	Spans []obs.SpanRecord `json:"spans"`
}

// handleTraceDump collects coordinator + worker span dumps. Workers
// whose dump cannot be fetched (down, or running without
// -trace-buffer) are reported in Errors rather than failing the
// collection.
func (c *Coordinator) handleTraceDump(w http.ResponseWriter, r *http.Request) {
	if c.tracer == nil {
		server.WriteError(w, http.StatusNotFound, "cluster: tracing disabled (start dvsfleet with -trace-buffer)")
		return
	}
	dump := FleetTraceDump{
		Coordinator: c.tracer.Dump(),
		Workers:     map[string]obs.TraceDump{},
		Spans:       []obs.SpanRecord{},
	}
	for _, wk := range c.workerList() {
		ctx, cancel := context.WithTimeout(r.Context(), healthTimeout)
		raw, err := wk.c.TraceDump(ctx)
		cancel()
		if err != nil {
			if dump.Errors == nil {
				dump.Errors = map[string]string{}
			}
			dump.Errors[wk.addr] = err.Error()
			continue
		}
		var td obs.TraceDump
		if err := json.Unmarshal(raw, &td); err != nil {
			if dump.Errors == nil {
				dump.Errors = map[string]string{}
			}
			dump.Errors[wk.addr] = err.Error()
			continue
		}
		dump.Workers[wk.addr] = td
	}
	dump.Spans = append(dump.Spans, dump.Coordinator.Spans...)
	for _, td := range dump.Workers {
		dump.Spans = append(dump.Spans, td.Spans...)
	}
	sort.Slice(dump.Spans, func(i, j int) bool {
		if dump.Spans[i].StartUnixNs != dump.Spans[j].StartUnixNs {
			return dump.Spans[i].StartUnixNs < dump.Spans[j].StartUnixNs
		}
		return dump.Spans[i].SpanID < dump.Spans[j].SpanID
	})
	server.WriteJSON(w, http.StatusOK, dump)
}

// notReady is the fleet's readiness test: not ready while no worker
// is in the ring, so a load balancer in front of several coordinators
// steers traffic away from one whose fleet has collapsed.
func (c *Coordinator) notReady() map[string]any {
	if c.ring.Len() == 0 {
		return map[string]any{"status": "no ready workers", "workers": c.workerCount()}
	}
	return nil
}
