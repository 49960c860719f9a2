package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"dvsslack/internal/obs"
	"dvsslack/internal/policies"
)

// Front is the part of the HTTP API that dvsd and the dvsfleet
// coordinator serve from one code path, so a client cannot tell the
// two apart: the per-request Edge, the seven batch-job endpoints over
// the service's JobStore (checkpoint and restore included),
// /healthz, /v1/policies, the draining answer of /readyz, and the 503
// every work-accepting endpoint gives once the service drains. It
// also owns the jobs' durability: Drain, RecoverCheckpoints and the
// pruning of checkpoint files. Each service fills one in and mounts it
// beside its own routes.
type Front struct {
	Edge Edge
	Jobs *JobStore
	// Base parents the context of every job created over HTTP.
	Base context.Context
	// Draining is the service's shutdown switch: once set, new work is
	// refused and /healthz and /readyz answer 503.
	Draining *atomic.Bool
	// NotReady is the service's own readiness test: the body of a 503
	// from /readyz while it should receive no new traffic, nil when it
	// is ready.
	NotReady     func() map[string]any
	MaxBodyBytes int64
	// SSEWriteTimeout arms every SSE write; <= 0 selects 5s.
	SSEWriteTimeout time.Duration
	// Count records one request the Edge does not wrap: the SSE
	// stream, which must outlive any request deadline.
	Count func(label string, ok bool)
	// Dropped, when non-nil, counts SSE consumers dropped for a
	// failed or overdue write.
	Dropped *obs.Counter
	// Checkpoints counts checkpoint documents produced; Restores counts
	// restore attempts by outcome ("ok" or "error"). Both are required.
	Checkpoints *obs.Counter
	Restores    *obs.CounterVec
	// CheckpointDir, when non-empty, makes jobs durable: Drain
	// checkpoints stragglers into it instead of cancelling them, and
	// RecoverCheckpoints resumes them in the next process.
	CheckpointDir string
}

// Mount registers the shared routes on mux.
func (f *Front) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", f.Edge.Instrument("jobs.create", f.createJob))
	mux.HandleFunc("GET /v1/jobs", f.Edge.Instrument("jobs.list", f.listJobs))
	mux.HandleFunc("GET /v1/jobs/{id}", f.Edge.Instrument("jobs.get", f.getJob))
	mux.HandleFunc("DELETE /v1/jobs/{id}", f.Edge.Instrument("jobs.cancel", f.cancelJob))
	mux.HandleFunc("GET /v1/jobs/{id}/events", f.jobEvents) // SSE, self-instrumented
	mux.HandleFunc("POST /v1/jobs/{id}/checkpoint", f.Edge.Instrument("jobs.checkpoint", f.checkpointJob))
	mux.HandleFunc("POST /v1/jobs/restore", f.Edge.Instrument("jobs.restore", f.restoreJob))
	mux.HandleFunc("GET /v1/policies", f.Edge.Instrument("policies", handlePolicies))
	mux.HandleFunc("GET /healthz", f.healthz)
	mux.HandleFunc("GET /readyz", f.readyz)
}

// RejectIfDraining answers 503 + Retry-After once the service drains
// and reports whether it did; every work-accepting handler calls it
// first.
func (f *Front) RejectIfDraining(w http.ResponseWriter) bool {
	if !f.Draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", DrainRetryAfter)
	WriteError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
	return true
}

// lookup resolves the {id} path value to a job, answering 404 itself
// when there is none.
func (f *Front) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	j, ok := f.Jobs.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "server: no such job %q", r.PathValue("id"))
	}
	return j, ok
}

// createJob answers POST /v1/jobs: submit a batch, get an ID.
func (f *Front) createJob(w http.ResponseWriter, r *http.Request) {
	if f.RejectIfDraining(w) {
		return
	}
	var req BatchRequest
	if !DecodeBody(w, r, f.MaxBodyBytes, &req) {
		return
	}
	runs, err := req.Expand()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	WriteJSON(w, http.StatusAccepted, f.Jobs.Create(f.Base, req.Name, runs).info(false))
}

// listJobs answers GET /v1/jobs.
func (f *Front) listJobs(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, f.Jobs.List())
}

// getJob answers GET /v1/jobs/{id}; ?results=1 includes per-run
// outcomes.
func (f *Front) getJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := f.lookup(w, r); ok {
		WriteJSON(w, http.StatusOK, j.info(r.URL.Query().Get("results") != ""))
	}
}

// cancelJob answers DELETE /v1/jobs/{id}.
func (f *Front) cancelJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := f.lookup(w, r); ok {
		j.cancel()
		w.WriteHeader(http.StatusNoContent)
	}
}

// jobEvents answers GET /v1/jobs/{id}/events with an SSE stream of
// progress events, ending with an "end" event when the job reaches a
// terminal state. Every write is armed with the write deadline: a
// consumer that stops reading is dropped (and counted) instead of
// pinning this goroutine to a dead connection.
func (f *Front) jobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := f.lookup(w, r)
	f.Count("jobs.events", ok)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, snapshot, unsub := j.subscribe()
	defer unsub()
	timeout := f.SSEWriteTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	sink := &httpSSESink{w: w, rc: http.NewResponseController(w)}
	if err := streamJob(r.Context(), sink, j, snapshot, ch, timeout); err != nil {
		if f.Dropped != nil {
			f.Dropped.Inc()
		}
		f.Edge.Log.LogAttrs(r.Context(), slog.LevelWarn, "sse consumer dropped",
			slog.String("job", j.id), slog.String("err", err.Error()))
	}
}

// httpSSESink adapts an http.ResponseWriter (through its
// ResponseController, so write deadlines survive middleware
// wrapping) to the sseSink interface streamJob consumes.
type httpSSESink struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

func (s *httpSSESink) Write(p []byte) (int, error) { return s.w.Write(p) }

func (s *httpSSESink) SetWriteDeadline(t time.Time) error { return s.rc.SetWriteDeadline(t) }

func (s *httpSSESink) Flush() error {
	err := s.rc.Flush()
	if errors.Is(err, http.ErrNotSupported) {
		// A buffering transport cannot stream, but the events still
		// arrive when the response completes; not a dropped consumer.
		return nil
	}
	return err
}

// handlePolicies answers GET /v1/policies with the registry names.
// Coordinator and workers are built from the same registry, so the
// coordinator's answer is authoritative without a proxy hop.
func handlePolicies(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"policies": policies.Names(),
		"wrappers": []string{"crit", "dual", "guard"},
	})
}

// healthz answers GET /healthz (liveness: the process serves).
func (f *Front) healthz(w http.ResponseWriter, r *http.Request) {
	if f.Draining.Load() {
		w.Header().Set("Retry-After", DrainRetryAfter)
		WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyz answers GET /readyz (readiness: this instance should receive
// new traffic): 503 while draining or while NotReady reports a reason,
// 200 otherwise.
func (f *Front) readyz(w http.ResponseWriter, r *http.Request) {
	if f.Draining.Load() {
		w.Header().Set("Retry-After", DrainRetryAfter)
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if body := f.NotReady(); body != nil {
		w.Header().Set("Retry-After", ShedRetryAfter)
		WriteJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}
