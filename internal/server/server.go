package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"dvsslack/internal/obs"
	"dvsslack/internal/resilience"
	"dvsslack/internal/trace"
)

// Config tunes the daemon.
type Config struct {
	// Workers is the simulation worker-pool size; <= 0 selects
	// runtime.NumCPU().
	Workers int
	// QueueDepth bounds the pending-run queue; <= 0 selects
	// Workers×64.
	QueueDepth int
	// CacheSize is the result-cache capacity in entries; <= 0
	// selects 4096. Set to -1 to disable caching.
	CacheSize int
	// MaxBodyBytes bounds request bodies; <= 0 selects 32 MiB.
	MaxBodyBytes int64
	// EnablePprof mounts the net/http/pprof handlers under
	// /debug/pprof/ (cmd/dvsd -pprof). Off by default: profiling
	// endpoints expose internals and cost CPU when hit.
	EnablePprof bool
	// Logger receives structured request and lifecycle logs; nil
	// discards them.
	Logger *slog.Logger

	// RequestTimeout bounds the handling of every non-streaming
	// request (cmd/dvsd -request-timeout). Clients may tighten — but
	// never loosen — it per request via an X-Request-Deadline header
	// holding a Go duration ("750ms"). 0 disables the server-side
	// bound (client deadlines still apply).
	RequestTimeout time.Duration
	// AdmitLimit caps concurrently admitted synchronous /v1/simulate
	// requests; excess requests are shed immediately with 429 +
	// Retry-After instead of piling up goroutines. <= 0 selects
	// workers + queue depth (everything admitted can be running or
	// queued; nothing admitted ever waits behind a full queue for
	// long). Cache hits bypass admission: an overloaded daemon keeps
	// serving memoized results while shedding fresh simulation work.
	AdmitLimit int
	// SSEWriteTimeout is the per-event write deadline of the SSE job
	// stream; consumers that cannot absorb an event within it are
	// dropped rather than allowed to park the stream goroutine on a
	// dead connection. <= 0 selects 5s.
	SSEWriteTimeout time.Duration
	// Chaos, when non-nil, wraps the handler chain in the
	// deterministic fault injector (cmd/dvsd -chaos). Testing only.
	Chaos *resilience.ChaosConfig

	// CheckpointDir, when non-empty, enables durable job checkpoints:
	// Shutdown checkpoints unfinished jobs into this directory instead
	// of cancelling them, and RecoverCheckpoints resumes them on the
	// next start (cmd/dvsd -checkpoint-dir).
	CheckpointDir string
	// CheckpointInterval, when positive (and CheckpointDir is set),
	// additionally writes running jobs' documents to the directory on
	// this period, so a crash — not just a graceful drain — loses at
	// most one interval of outcomes plus the runs then in flight
	// (cmd/dvsd -checkpoint-interval).
	CheckpointInterval time.Duration

	// Tracer, when non-nil, records handler / simulation / engine
	// phase spans into its ring (served on GET /debug/trace).
	// Propagation is independent of recording: inbound traceparent
	// headers are honored and forwarded whether or not a Tracer is
	// set, so enabling one cannot change any request's bytes.
	Tracer *obs.Tracer
	// FlightRecorder sizes the decision flight recorder ring
	// (GET /debug/flightrecorder): 0 selects 4096, -1 disables it.
	FlightRecorder int
}

// Server is the dvsd control plane: an http.Handler plus the worker
// pool, job store, result cache, and metrics behind it.
type Server struct {
	cfg     Config
	workers int
	pool    *pool
	jobs    *JobStore
	cache   *resultCache
	met     *metrics
	log     *slog.Logger
	mux     *http.ServeMux
	handler http.Handler // mux behind recovery (and chaos) middleware
	front   *Front

	admit *resilience.Limiter // sync-request admission budget

	tracer *obs.Tracer
	flight *obs.FlightRecorder

	draining atomic.Bool
	baseCtx  context.Context
	baseStop context.CancelFunc
}

// New builds a ready-to-serve Server.
func New(cfg Config) *Server {
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	cacheSize := cfg.CacheSize
	switch {
	case cacheSize == 0:
		cacheSize = 4096
	case cacheSize < 0:
		cacheSize = 0
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	s := &Server{cfg: cfg, workers: workers}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = obs.Discard()
	}
	s.tracer = cfg.Tracer
	if cfg.FlightRecorder >= 0 {
		s.flight = obs.NewFlightRecorder(cfg.FlightRecorder)
	}
	s.cache = newResultCache(cacheSize)
	s.met = newMetrics(workers, s.cache)
	s.pool = newPool(workers, cfg.QueueDepth, s.cache, s.met, s.tracer, s.flight)
	// Jobs keep at most 2× the worker count of runs outstanding, so one
	// huge job cannot monopolize the queue against concurrent jobs and
	// single-run requests.
	s.jobs = NewJobStore("j", func() int { return 2 * s.pool.workers }, s.pool.DoJob,
		s.met.jobsCreated, s.met.jobsFinished, s.met.sseLagged)
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	s.front = &Front{
		Edge: Edge{
			Service: "dvsd",
			Tracer:  s.tracer,
			Log:     s.log,
			Timeout: cfg.RequestTimeout,
			Record: func(label string, ok bool, dur time.Duration, timedOut bool) {
				if timedOut {
					s.met.reqTimeouts.Inc()
				}
				s.met.request(label, ok)
				s.met.httpDone(label, dur)
			},
		},
		Jobs:            s.jobs,
		Base:            s.baseCtx,
		Draining:        &s.draining,
		NotReady:        s.notReady,
		MaxBodyBytes:    cfg.MaxBodyBytes,
		SSEWriteTimeout: cfg.SSEWriteTimeout,
		Count:           s.met.request,
		Dropped:         s.met.sseDropped,
		Checkpoints:     s.met.checkpoints,
		Restores:        s.met.restores,
		CheckpointDir:   cfg.CheckpointDir,
	}

	mux := http.NewServeMux()
	edge := &s.front.Edge
	s.front.Mount(mux)
	mux.HandleFunc("POST /v1/simulate", edge.Instrument("simulate", s.handleSimulate))
	mux.HandleFunc("POST /v1/scenario", edge.Instrument("scenario", s.handleScenario))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.prom", s.handleMetricsProm)
	mux.HandleFunc("GET /debug/trace", s.handleTraceDump)
	mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	mux.HandleFunc("GET /debug/flightrecorder.trace", s.handleFlightTrace)
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux

	// Admission budget: everything admitted fits in the pool (running
	// or queued), so admitted synchronous requests never stack up
	// behind a queue that cannot drain.
	admitCap := cfg.AdmitLimit
	if admitCap <= 0 {
		admitCap = workers + s.pool.Depth()
	}
	s.admit = resilience.NewLimiter(admitCap)
	s.met.reg.GaugeFunc("dvsd_admitted", "currently admitted synchronous requests",
		func() float64 { return float64(s.admit.InUse()) })
	s.met.reg.GaugeFunc("dvsd_admit_capacity", "admission budget for synchronous requests",
		func() float64 { return float64(s.admit.Capacity()) })

	// Middleware chain, outermost first: panic recovery (a handler
	// bug costs one 500, not the process), then fault injection when
	// configured. Ops endpoints are exempt from chaos so probes and
	// scrapes stay truthful while everything else misbehaves.
	s.handler = http.Handler(s.mux)
	if cfg.Chaos != nil {
		cc := *cfg.Chaos
		if cc.Exempt == nil {
			cc.Exempt = []string{"/healthz", "/readyz", "/metrics", "/debug/pprof/"}
		}
		if cc.OnInject == nil {
			cc.OnInject = func(f resilience.Fault) { s.met.chaosInjected.With(string(f)).Inc() }
		}
		chaos, err := resilience.NewChaos(cc)
		if err != nil {
			panic(fmt.Sprintf("server: invalid chaos config: %v", err))
		}
		s.handler = chaos.Middleware(s.handler)
	}
	s.handler = resilience.Recover(s.handler, func(v any) {
		s.met.panics.Inc()
		s.log.Error("handler panic recovered", "panic", fmt.Sprint(v))
	})
	if cfg.CheckpointDir != "" && cfg.CheckpointInterval > 0 {
		go s.autoCheckpointLoop()
	}
	return s
}

// Handler returns the HTTP entry point (the mux behind the recovery
// and chaos middleware).
func (s *Server) Handler() http.Handler { return s.handler }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Workers returns the worker-pool size.
func (s *Server) Workers() int { return s.workers }

// Shutdown drains the daemon's jobs (Front.Drain), then its worker
// pool. The caller closes the HTTP listener first (http.Server's own
// Shutdown), so no new requests arrive mid-drain.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.front.Drain(ctx, func(ctx context.Context) error {
		s.baseStop()
		return s.pool.Drain(ctx)
	})
}

// RecoverCheckpoints resumes the jobs checkpointed into CheckpointDir
// by an earlier process (Front.RecoverCheckpoints).
func (s *Server) RecoverCheckpoints() (int, error) { return s.front.RecoverCheckpoints() }

// --- plumbing (shared with the dvsfleet coordinator) ---

// statusWriter records the response code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap keeps http.ResponseController upgrades (flush, write
// deadlines) working through the wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ErrDeadlineExceeded answers (503 + Retry-After) a request whose
// deadline — the server-wide timeout or the client's
// X-Request-Deadline — expired before its answer was ready.
var ErrDeadlineExceeded = errors.New("server: request deadline exceeded")

// Edge is the per-request HTTP plumbing dvsd and the dvsfleet
// coordinator share, so a client cannot tell one from the other:
// request IDs, trace context, X-Request-Deadline enforcement, access
// logs, and per-endpoint request metrics.
type Edge struct {
	// Service prefixes handler span names ("dvsd", "dvsfleet").
	Service string
	// Tracer records handler spans; nil records none (inbound trace
	// context still propagates).
	Tracer *obs.Tracer
	Log    *slog.Logger
	// Timeout bounds every instrumented request; 0 leaves only the
	// client's X-Request-Deadline.
	Timeout time.Duration
	// Record counts one finished request: ok is false for a status of
	// 400 or more, timedOut reports that its deadline expired.
	Record func(label string, ok bool, dur time.Duration, timedOut bool)
}

// deadline resolves the effective deadline of one request: the
// tighter of Timeout and the client's X-Request-Deadline header (a Go
// duration, e.g. "750ms"). 0 means unbounded.
func (e *Edge) deadline(r *http.Request) (time.Duration, error) {
	d := e.Timeout
	if h := r.Header.Get("X-Request-Deadline"); h != "" {
		cd, err := time.ParseDuration(h)
		if err != nil || cd <= 0 {
			return 0, fmt.Errorf("server: invalid X-Request-Deadline %q (want a positive Go duration)", h)
		}
		if d == 0 || cd < d {
			d = cd
		}
	}
	return d, nil
}

// Instrument wraps a handler with request counting, latency
// recording, per-request deadline enforcement (a malformed
// X-Request-Deadline is answered 400), and request-ID access logging.
// A valid inbound X-Request-ID (a coordinator hop or a client-supplied
// ID) is adopted so fleet logs correlate; otherwise a fresh ID is
// minted. Either way the ID is returned in X-Request-ID. An inbound
// traceparent header is continued: the handler runs inside a span
// (when tracing is on) and the request context carries the request
// ID, the span context, and the deadline into the simulation pool and
// outbound calls.
func (e *Edge) Instrument(label string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		handle := h
		deadline, err := e.deadline(r)
		if err != nil {
			handle = func(w http.ResponseWriter, _ *http.Request) {
				WriteError(w, http.StatusBadRequest, "%v", err)
			}
		}
		parent, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		span := e.Tracer.StartSpan(parent, e.Service+"."+label) // nil-safe: nil span when tracing is off
		sc := span.Context()
		if !sc.Valid() {
			sc = parent // propagate the inbound context even with recording off
		}
		ctx := obs.ContextWithRequestID(r.Context(), id)
		if sc.Valid() {
			ctx = obs.ContextWithSpanContext(ctx, sc)
		}
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		r = r.WithContext(ctx)
		start := time.Now()
		handle(sw, r)
		dur := time.Since(start)
		e.Record(label, sw.code < 400, dur, deadline > 0 && errors.Is(ctx.Err(), context.DeadlineExceeded))
		span.SetAttr("endpoint", label)
		span.SetAttr("status", strconv.Itoa(sw.code))
		span.SetAttr("request_id", id)
		span.End()
		attrs := []slog.Attr{
			slog.String("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", label),
			slog.Int("status", sw.code),
			slog.Duration("dur", dur),
		}
		if sc.Valid() {
			attrs = append(attrs, slog.String("trace", sc.TraceID.String()))
		}
		e.Log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	}
}

// WriteJSON writes v as the indented JSON response body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes the ErrorBody envelope every non-2xx response
// uses.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// writeBodyError answers a request body that could not be read: 413
// when it exceeded the body-size limit, 400 otherwise.
func writeBodyError(w http.ResponseWriter, what string, err error) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	WriteError(w, code, "%s: %v", what, err)
}

// DecodeBody strictly decodes a JSON request body of at most maxBytes
// into v, answering the request itself (413 or 400) when it cannot.
func DecodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBytes)
	if err := decodeStrict(body, v); err != nil {
		writeBodyError(w, "invalid request body", err)
		return false
	}
	io.Copy(io.Discard, body)
	return true
}

// decodeStrict decodes one JSON value from r into v, failing on
// unknown fields and on trailing data.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data")
	}
	return nil
}

// DrainRetryAfter is the Retry-After hint (seconds) on draining 503s:
// long enough for a load balancer to fail over, short enough that a
// client retrying the same address after a rolling restart succeeds.
const DrainRetryAfter = "5"

// ShedRetryAfter is the Retry-After hint (seconds) on shed (429) and
// deadline-exceeded (503) responses: overload is expected to clear on
// the scale of in-flight run latency, not process lifetime.
const ShedRetryAfter = "1"

// --- handlers ---

// handleSimulate answers POST /v1/simulate: one run, synchronously.
// Fresh simulations pass admission control first; an overloaded
// daemon sheds them with 429 + Retry-After while continuing to serve
// cache hits, so degradation is graceful rather than a goroutine
// pile-up.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if s.front.RejectIfDraining(w) {
		return
	}
	var req SimRequest
	if !DecodeBody(w, r, s.cfg.MaxBodyBytes, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if res, ok := s.pool.Lookup(&req); ok {
		WriteJSON(w, http.StatusOK, res)
		return
	}
	admitStart := time.Now()
	err := s.admit.TryAcquire()
	if s.tracer != nil {
		if sc, ok := obs.SpanContextFromContext(r.Context()); ok {
			s.tracer.Emit(sc, "dvsd.admit", admitStart, time.Since(admitStart),
				map[string]string{"ok": strconv.FormatBool(err == nil)})
		}
	}
	if err != nil {
		s.met.shed.Inc()
		w.Header().Set("Retry-After", ShedRetryAfter)
		WriteError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	defer s.admit.Release()
	res, err := s.pool.Do(r.Context(), &req)
	switch {
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", DrainRetryAfter)
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		// The per-request deadline (server -request-timeout or client
		// X-Request-Deadline) expired before a worker finished the
		// run: the work is abandoned to the cache and the client is
		// told to come back.
		w.Header().Set("Retry-After", ShedRetryAfter)
		WriteError(w, http.StatusServiceUnavailable, "%v", ErrDeadlineExceeded)
	case errors.Is(err, context.Canceled):
		WriteError(w, http.StatusRequestTimeout, "%v", err)
	case err != nil:
		// The request validated but the run failed (e.g. a strict
		// deadline miss): the fault is in the requested scenario.
		WriteError(w, http.StatusUnprocessableEntity, "%v", err)
	default:
		WriteJSON(w, http.StatusOK, res)
	}
}

// handleMetrics answers GET /metrics with a JSON snapshot.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.met.snapshot(s.workers, s.cache))
}

// handleMetricsProm answers GET /metrics.prom with the Prometheus
// text exposition of the registry.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PromContentType)
	s.met.writeProm(w)
}

// handleTraceDump answers GET /debug/trace with this daemon's span
// ring as JSON; 404 when tracing is disabled (no -trace-buffer).
func (s *Server) handleTraceDump(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		WriteError(w, http.StatusNotFound, "server: tracing disabled (start dvsd with -trace-buffer)")
		return
	}
	WriteJSON(w, http.StatusOK, s.tracer.Dump())
}

// handleFlightRecorder answers GET /debug/flightrecorder with the
// decision flight recorder snapshot; 404 when disabled (-flight -1).
func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		WriteError(w, http.StatusNotFound, "server: flight recorder disabled (-flight -1)")
		return
	}
	WriteJSON(w, http.StatusOK, s.flight.Snapshot())
}

// handleFlightTrace answers GET /debug/flightrecorder.trace with the
// retained decisions rendered in Chrome Trace Event Format (the
// decision instants + flow chain, loadable in Perfetto).
func (s *Server) handleFlightTrace(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		WriteError(w, http.StatusNotFound, "server: flight recorder disabled (-flight -1)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	trace.NewRecorder().ChromeTraceFlight(w, nil, s.flight.Records())
}

// notReady is dvsd's readiness test: not ready while the admission
// budget is at its high-water mark (90% spent), so a load balancer
// watching /readyz steers new requests away before they would be shed.
func (s *Server) notReady() map[string]any {
	inUse, capacity := s.admit.InUse(), s.admit.Capacity()
	if highWater := (capacity*9 + 9) / 10; inUse >= highWater {
		return map[string]any{"status": "saturated", "admitted": inUse, "capacity": capacity}
	}
	return nil
}
