package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strconv"

	"dvsslack/internal/obs"
	"dvsslack/internal/server"
)

// DrainWorker live-migrates a worker's jobs off the node: the worker
// is cordoned (no new routed traffic), every queued or running job on
// it is checkpointed mid-simulation, and each checkpoint document is
// restored on the job's ring successor. The byte-determinism of the
// snapshot layer makes the move invisible in the results — the
// restored job finishes exactly as it would have on the drained
// worker. Returns how many jobs were migrated and how many could not
// be moved (they keep running, or sit checkpointed, on the source).
func (c *Coordinator) DrainWorker(ctx context.Context, addr, reason string) (migrated, failed int, err error) {
	src, ok := c.worker(addr)
	if !ok {
		return 0, 0, fmt.Errorf("cluster: unknown worker %q", addr)
	}
	c.Cordon(addr)
	jobs, err := src.c.Jobs(ctx)
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: listing jobs on %s: %w", addr, err)
	}
	for _, info := range jobs {
		if info.State != server.JobQueued && info.State != server.JobRunning {
			continue
		}
		if merr := c.migrateJob(ctx, src, info, reason); merr != nil {
			failed++
			c.log.Warn("cluster: job migration failed",
				"worker", addr, "job", info.ID, "err", merr)
			continue
		}
		migrated++
	}
	return migrated, failed, nil
}

// migrateJob moves one job: checkpoint on src, restore on the first
// ring successor that accepts the document. A job that completed in
// the pause window needs no move (its outcomes stay on src).
func (c *Coordinator) migrateJob(ctx context.Context, src *worker, info server.JobInfo, reason string) error {
	parent, _ := obs.SpanContextFromContext(ctx)
	span := c.tracer.StartSpan(parent, "fleet.migrate") // nil-safe
	span.SetAttr("job", info.ID)
	span.SetAttr("from", src.addr)
	span.SetAttr("reason", reason)

	doc, err := src.c.CheckpointJob(ctx, info.ID)
	if err != nil {
		span.SetAttr("outcome", "checkpoint-error")
		span.SetAttr("error", err.Error())
		span.End()
		return fmt.Errorf("checkpoint: %w", err)
	}
	if len(doc.Snapshots) == 0 && len(doc.Outcomes) == len(doc.Runs) {
		// The job won the race: every run finished before the pause
		// landed, so there is nothing left to move.
		span.SetAttr("outcome", "completed")
		span.End()
		return nil
	}

	var lastErr error
	for _, cand := range c.candidates(info.ID) {
		if cand == src.addr {
			continue
		}
		dst, ok := c.worker(cand)
		if !ok {
			continue
		}
		restored, rerr := dst.c.RestoreJob(ctx, doc)
		if rerr != nil {
			lastErr = fmt.Errorf("restore on %s: %w", cand, rerr)
			continue
		}
		c.met.migrations.With(reason).Inc()
		span.SetAttr("to", cand)
		span.SetAttr("restored_as", restored.ID)
		span.SetAttr("snapshots", strconv.Itoa(len(doc.Snapshots)))
		span.SetAttr("outcome", "ok")
		span.End()
		c.log.Info("cluster: job migrated",
			"job", info.ID, "from", src.addr, "to", cand,
			"restored_as", restored.ID, "snapshots", len(doc.Snapshots),
			"done", len(doc.Outcomes), "total", len(doc.Runs), "reason", reason)
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no candidate worker accepted the checkpoint")
	}
	span.SetAttr("outcome", "error")
	span.SetAttr("error", lastErr.Error())
	span.End()
	return lastErr
}

// handleDrain answers POST /v1/cluster/drain?worker=addr: cordon the
// worker and live-migrate its jobs to their ring successors.
func (c *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	addr, ok := c.workerParam(w, r)
	if !ok {
		return
	}
	migrated, failed, err := c.DrainWorker(r.Context(), addr, "drain")
	if err != nil {
		server.WriteError(w, http.StatusBadGateway, "cluster: drain %s: %v", addr, err)
		return
	}
	body := map[string]any{"drained": addr, "migrated": migrated}
	if failed > 0 {
		body["failed"] = failed
	}
	server.WriteJSON(w, http.StatusOK, body)
}
