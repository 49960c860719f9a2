// Command dvsd is the simulation daemon: an HTTP/JSON service that
// runs DVS-EDF simulations on a bounded worker pool, with an async
// batch-job API, an LRU result cache, and metrics endpoints.
//
// Usage:
//
//	dvsd                                  # listen on :8080, NumCPU workers
//	dvsd -addr 127.0.0.1:9090 -workers 8
//	dvsd -addr 127.0.0.1:0                # pick a free port (logged)
//	dvsd -pprof -log-level debug -log-format json
//	dvsd -request-timeout 30s -admit 64   # resilience knobs (docs/resilience.md)
//	dvsd -chaos 42                        # deterministic fault injection (testing)
//
// Endpoints (see docs/api.md and docs/observability.md):
//
//	POST /v1/simulate                one run, synchronous
//	POST /v1/jobs                    batch run/sweep, async
//	GET  /v1/jobs                    job listing
//	GET  /v1/jobs/{id}               job status (+ ?results=1)
//	GET  /v1/jobs/{id}/events        SSE progress stream
//	DELETE /v1/jobs/{id}             cancel
//	POST /v1/jobs/{id}/checkpoint    pause, get runs + outcomes document
//	POST /v1/jobs/restore            resume a document, re-running the rest
//	GET  /v1/policies                policy registry
//	GET  /metrics                    JSON metrics snapshot
//	GET  /metrics.prom               Prometheus text exposition
//	GET  /debug/pprof/*              profiling (with -pprof)
//	GET  /healthz                    liveness
//	GET  /readyz                     readiness (drain/saturation aware)
//
// SIGINT/SIGTERM trigger a graceful drain: the listener closes, and
// jobs in flight get -drain-timeout to finish. What happens to the
// stragglers depends on -checkpoint-dir: with one set they are
// checkpointed (their in-flight runs stop; the next start from the
// same directory recovers them and re-runs what has no outcome — see
// docs/checkpoints.md); without, they are cancelled.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dvsslack/internal/obs"
	"dvsslack/internal/resilience"
	"dvsslack/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers   = flag.Int("workers", 0, "simulation worker count (0 = NumCPU)")
		queue     = flag.Int("queue", 0, "pending-run queue depth (0 = workers*64)")
		cacheSize = flag.Int("cache", 4096, "result cache entries (0 disables)")
		drain     = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain deadline")
		pprof     = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")

		reqTimeout = flag.Duration("request-timeout", 60*time.Second,
			"per-request deadline; clients may tighten it with X-Request-Deadline (0 = unbounded)")
		admit = flag.Int("admit", 0,
			"max concurrently admitted synchronous simulations; excess is shed with 429 (0 = workers+queue)")
		sseTimeout = flag.Duration("sse-write-timeout", 5*time.Second,
			"per-event write deadline on SSE job streams; slow consumers are dropped")
		chaosSeed = flag.Uint64("chaos", 0,
			"enable deterministic fault injection with this seed (testing only; 0 = off)")
		chaosDelay = flag.Duration("chaos-max-delay", 25*time.Millisecond,
			"upper bound of chaos-injected delays (with -chaos)")
		traceBuf = flag.Int("trace-buffer", 0,
			"record spans into a ring of this many entries, served at /debug/trace (0 = tracing off; header propagation always on)")
		flight = flag.Int("flight", 4096,
			"decision flight-recorder ring entries, served at /debug/flightrecorder (-1 disables)")
		ckptDir = flag.String("checkpoint-dir", "",
			"directory for durable job checkpoints: drain checkpoints unfinished jobs here and the next start resumes them (empty = off)")
		ckptInterval = flag.Duration("checkpoint-interval", 0,
			"auto-checkpoint running jobs to -checkpoint-dir on this period, bounding crash loss (0 = drain-time only)")
		logCfg obs.LogConfig
	)
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	logger, err := logCfg.New(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvsd: %v\n", err)
		os.Exit(2)
	}

	cs := *cacheSize
	if cs == 0 {
		cs = -1 // Config: 0 means default, -1 disables
	}
	var chaos *resilience.ChaosConfig
	if *chaosSeed != 0 {
		cc := resilience.DefaultChaos(*chaosSeed)
		cc.MaxDelay = *chaosDelay
		chaos = &cc
		logger.Warn("dvsd: CHAOS MODE — injecting deterministic faults", "seed", *chaosSeed,
			"max_delay", chaosDelay.String())
	}
	var tracer *obs.Tracer
	if *traceBuf > 0 {
		tracer = obs.NewTracer("dvsd", *traceBuf)
	}
	srv := server.New(server.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		CacheSize:          cs,
		EnablePprof:        *pprof,
		Logger:             logger,
		RequestTimeout:     *reqTimeout,
		AdmitLimit:         *admit,
		SSEWriteTimeout:    *sseTimeout,
		Chaos:              chaos,
		Tracer:             tracer,
		FlightRecorder:     *flight,
		CheckpointDir:      *ckptDir,
		CheckpointInterval: *ckptInterval,
	})
	if _, err := srv.RecoverCheckpoints(); err != nil {
		logger.Warn("dvsd: checkpoint recovery incomplete", "dir", *ckptDir, "err", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("dvsd: listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: srv.Handler()}
	// The "listening on <addr>" phrase is load-bearing: verify.sh and
	// operators' scripts extract the bound port from it.
	logger.Info(fmt.Sprintf("dvsd: listening on %s (%d workers)", ln.Addr(), srv.Workers()),
		"addr", ln.Addr().String(), "workers", srv.Workers(), "pprof", *pprof)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case sig := <-sigc:
		logger.Info("dvsd: draining", "signal", sig.String(), "deadline", drain.String())
	case err := <-errc:
		logger.Error("dvsd: serve failed", "err", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting HTTP first, then drain the simulation backlog.
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("dvsd: http shutdown", "err", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		// With a checkpoint directory, a blown drain deadline is a
		// clean outcome: the stragglers were checkpointed to disk and
		// the next start resumes them.
		if *ckptDir != "" && errors.Is(err, context.DeadlineExceeded) {
			logger.Info("dvsd: unfinished jobs checkpointed", "dir", *ckptDir)
		} else {
			logger.Error("dvsd: drain incomplete", "err", err)
			os.Exit(1)
		}
	}
	fmt.Println("dvsd: drained, bye")
}
