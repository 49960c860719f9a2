// Command dvsfleet is the cluster coordinator: it fronts N dvsd
// workers with the same HTTP/JSON API a single daemon serves, routing
// each scenario to a worker by consistent hash of its canonical key
// (cache affinity), health-checking the fleet via /readyz, failing
// keys over from unreachable nodes, and fanning batch jobs out across
// every worker with an ordered, deterministic merge.
//
// Usage:
//
//	dvsfleet -embedded -workers 3                 # self-contained fleet (in-process dvsd workers)
//	dvsfleet -join 127.0.0.1:8081,127.0.0.1:8082  # front existing dvsd daemons
//	dvsfleet -addr 127.0.0.1:0 -embedded          # pick a free port (logged)
//
// Existing clients work unchanged against the coordinator address:
//
//	dvsexp -exp f3 -addr <fleet>       # experiment grid fans out across the fleet
//	dvshammer -addr <fleet> -n 200     # load through the router
//
// Endpoints: the full dvsd API (POST /v1/simulate, the /v1/jobs
// family incl. SSE, checkpoint and restore, /v1/policies, /metrics,
// /metrics.prom, /healthz, /readyz) plus the cluster plane:
//
//	GET  /v1/cluster                       topology and worker health
//	POST /v1/cluster/cordon?worker=addr    remove a worker from the ring
//	POST /v1/cluster/uncordon?worker=addr  re-admit it
//	POST /v1/cluster/kill?worker=addr      hard-stop a worker (embedded mode only; failover testing)
//
// SIGINT/SIGTERM drain gracefully: the listener closes, running fleet
// jobs get -drain-timeout to finish, then embedded workers (if any)
// drain in turn. As on dvsd, -checkpoint-dir checkpoints the jobs still
// running at the deadline for the next start to recover (see
// docs/checkpoints.md); without it they are cancelled.
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
	"strings"
	"syscall"
	"time"

	"dvsslack/internal/cluster"
	"dvsslack/internal/obs"
	"dvsslack/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8090", "coordinator listen address (host:port; port 0 picks a free port)")
		embedded = flag.Bool("embedded", false, "launch an in-process worker fleet instead of joining external daemons")
		workers  = flag.Int("workers", 3, "embedded worker count (with -embedded)")
		join     = flag.String("join", "", "comma-separated dvsd worker addresses to front (without -embedded)")
		interval = flag.Duration("health-interval", 500*time.Millisecond, "active /readyz probe period")
		drain    = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown drain deadline")

		workerPool  = flag.Int("worker-pool", 0, "per-embedded-worker simulation pool size (0 = NumCPU)")
		workerCache = flag.Int("worker-cache", 4096, "per-embedded-worker result cache entries (0 disables)")
		traceBuf    = flag.Int("trace-buffer", 0,
			"record spans into rings of this many entries (coordinator and, with -embedded, each worker), served at /debug/trace (0 = off)")
		ckptDir = flag.String("checkpoint-dir", "",
			"directory for durable fleet-job checkpoints: drain checkpoints unfinished jobs here and the next start resumes them (empty = off)")
		logCfg obs.LogConfig
	)
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	logger, err := logCfg.New(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvsfleet: %v\n", err)
		os.Exit(2)
	}

	cfg := cluster.Config{HealthInterval: *interval, Logger: logger, CheckpointDir: *ckptDir}
	if *traceBuf > 0 {
		cfg.Tracer = obs.NewTracer("dvsfleet", *traceBuf)
	}
	var embeddedFleet []*cluster.EmbeddedWorker
	switch {
	case *embedded && *join != "":
		fmt.Fprintln(os.Stderr, "dvsfleet: -embedded and -join are mutually exclusive")
		os.Exit(2)
	case *embedded:
		cs := *workerCache
		if cs == 0 {
			cs = -1 // server.Config: 0 means default, -1 disables
		}
		wcfg := server.Config{
			Workers:   *workerPool,
			CacheSize: cs,
			Logger:    logger.With("component", "worker"),
		}
		if *traceBuf > 0 {
			// Template ring: StartEmbedded clones it per worker.
			wcfg.Tracer = obs.NewTracer("dvsd", *traceBuf)
		}
		embeddedFleet, err = cluster.StartEmbedded(*workers, wcfg)
		if err != nil {
			logger.Error("dvsfleet: embedded fleet failed to start", "err", err)
			os.Exit(1)
		}
		cfg.Workers = cluster.Addrs(embeddedFleet)
		cfg.Kill = cluster.KillFunc(embeddedFleet)
		logger.Info("dvsfleet: embedded fleet up", "workers", strings.Join(cfg.Workers, ","))
	case *join != "":
		for _, a := range strings.Split(*join, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Workers = append(cfg.Workers, a)
			}
		}
	}
	if len(cfg.Workers) == 0 {
		fmt.Fprintln(os.Stderr, "dvsfleet: no workers (use -embedded or -join host:port,...)")
		os.Exit(2)
	}

	coord := cluster.New(cfg)
	coord.Start()
	// After Start, so the resumed runs find a routable fleet.
	if _, err := coord.RecoverCheckpoints(); err != nil {
		logger.Warn("dvsfleet: checkpoint recovery incomplete", "dir", *ckptDir, "err", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("dvsfleet: listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	hs := &http.Server{Handler: coord.Handler()}
	// The "listening on <addr>" phrase is load-bearing: verify.sh and
	// operators' scripts extract the bound port from it.
	logger.Info(fmt.Sprintf("dvsfleet: listening on %s (%d workers)", ln.Addr(), len(cfg.Workers)),
		"addr", ln.Addr().String(), "workers", len(cfg.Workers), "embedded", *embedded)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	select {
	case sig := <-sigc:
		logger.Info("dvsfleet: draining", "signal", sig.String(), "deadline", drain.String())
	case err := <-errc:
		logger.Error("dvsfleet: serve failed", "err", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting HTTP, drain coordinator jobs, then drain the
	// embedded workers (they must outlive the jobs that run on them).
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("dvsfleet: http shutdown", "err", err)
	}
	// A blown deadline with a checkpoint directory is a clean exit, as
	// on dvsd. The workers are still finishing the runs the pause left
	// them; like dvsd's pool then, they get a fresh bounded window,
	// logged rather than failed on.
	err = coord.Shutdown(ctx)
	checkpointed := *ckptDir != "" && errors.Is(err, context.DeadlineExceeded)
	failed := err != nil && !checkpointed
	if checkpointed {
		logger.Info("dvsfleet: unfinished jobs checkpointed", "dir", *ckptDir)
		ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
	} else if failed {
		logger.Error("dvsfleet: coordinator drain incomplete", "err", err)
	}
	for _, w := range embeddedFleet {
		if err := w.Drain(ctx); err != nil {
			logger.Error("dvsfleet: worker drain incomplete", "worker", w.Addr(), "err", err)
			failed = failed || !checkpointed
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("dvsfleet: drained, bye")
}
