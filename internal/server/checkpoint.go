package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"dvsslack/internal/obs"
)

// JobCheckpointVersion is the current job-checkpoint document
// version. It is bumped on any layout change; readers accept exactly
// the versions they know. Version 1 documents also carried a
// "snapshots" map of mid-run replay points and are rejected.
const JobCheckpointVersion = 2

// JobCheckpoint is the portable record of a paused job: the full run
// list and every outcome already recorded. It is self-contained —
// restoring it on any dvsd or dvsfleet coordinator, or in a later
// process (crash recovery), finishes the job with the results an
// uninterrupted run would have had, because each run is a pure
// function of its request and the restore re-runs every run without
// an outcome from that request.
type JobCheckpoint struct {
	Version int    `json:"version"`
	Name    string `json:"name,omitempty"`
	// JobID is the ID the job had when checkpointed, for logs and the
	// on-disk file name; restore always mints a fresh ID.
	JobID string       `json:"job_id,omitempty"`
	Runs  []SimRequest `json:"runs"`
	// Outcomes holds the runs that finished before the pause; restore
	// seeds the new job with them and never re-executes those indices.
	Outcomes []RunOutcome `json:"outcomes,omitempty"`
}

// errNoSuchJob distinguishes "unknown job ID" from transport errors
// on the checkpoint path.
var errNoSuchJob = errors.New("server: no such job")

// validate is the check every document passes before a job is
// registered from it. Everything fails closed: a version mismatch,
// no runs or too many, an invalid run, or an out-of-range or
// duplicate outcome each reject the whole document.
func (d *JobCheckpoint) validate() error {
	if d.Version != JobCheckpointVersion {
		return fmt.Errorf("server: job checkpoint version %d (this build reads version %d)",
			d.Version, JobCheckpointVersion)
	}
	if len(d.Runs) == 0 {
		return errors.New("server: job checkpoint has no runs")
	}
	if len(d.Runs) > MaxBatchRuns {
		return fmt.Errorf("server: job checkpoint has %d runs, limit %d", len(d.Runs), MaxBatchRuns)
	}
	for i := range d.Runs {
		if err := d.Runs[i].Validate(); err != nil {
			return fmt.Errorf("server: checkpoint run %d: %w", i, err)
		}
	}
	finished := make(map[int]bool, len(d.Outcomes))
	for _, ro := range d.Outcomes {
		if ro.Index < 0 || ro.Index >= len(d.Runs) {
			return fmt.Errorf("server: checkpoint outcome index %d out of range [0,%d)", ro.Index, len(d.Runs))
		}
		if finished[ro.Index] {
			return fmt.Errorf("server: duplicate checkpoint outcome for run %d", ro.Index)
		}
		finished[ro.Index] = true
	}
	return nil
}

// --- durable checkpoint files ---

// checkpointFileName is where a job's document lives inside the
// checkpoint directory.
func checkpointFileName(dir, id string) string {
	return filepath.Join(dir, id+".ckpt.json")
}

// writeCheckpointFile persists doc atomically and durably: the bytes
// are synced to a temporary file before it is renamed over the final
// name, and the directory is synced after, so neither a process crash
// nor a host crash can leave a torn or empty document where a valid
// one stood.
func writeCheckpointFile(dir string, doc *JobCheckpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	final := checkpointFileName(dir, doc.JobID)
	tmp := final + ".tmp"
	if err := writeSynced(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// writeSynced writes data to a new file at path and syncs it to
// stable storage before closing it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Drain is the job half of a service's shutdown, one code path for
// dvsd and the dvsfleet coordinator: new work is refused at once, and
// running jobs get until ctx's deadline to finish. Stragglers are then
// settled within 5s more: with CheckpointDir set they are checkpointed
// into it (their in-flight runs stop and are discarded; the next
// process's RecoverCheckpoints re-runs what has no outcome), otherwise
// cancelled. settle stops the owner's executor within whichever window
// is left, and the documents of jobs that reached a terminal state are
// pruned. The caller closes the HTTP listener first, so no new
// requests arrive mid-drain.
func (f *Front) Drain(ctx context.Context, settle func(context.Context) error) error {
	f.Draining.Store(true)
	err := f.Jobs.WaitIdle(ctx)
	if err != nil {
		hard, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if f.CheckpointDir != "" {
			// Checkpoint before cancelling: a cancelled job ends
			// cancelled and leaves no document.
			for _, doc := range f.Jobs.CheckpointAll(hard) {
				if werr := writeCheckpointFile(f.CheckpointDir, doc); werr != nil {
					f.Edge.Log.Warn("drain checkpoint failed", "job", doc.JobID, "err", werr)
					continue
				}
				f.Checkpoints.Inc()
				f.Edge.Log.Info("drain checkpoint written",
					"job", doc.JobID, "runs", len(doc.Runs), "outcomes", len(doc.Outcomes))
			}
		}
		f.Jobs.CancelAll(hard)
		ctx = hard
	}
	if serr := settle(ctx); err == nil {
		err = serr
	}
	f.pruneCheckpointFiles()
	return err
}

// RecoverCheckpoints restores every job document found in
// CheckpointDir (a previous process's drain or auto-checkpoint output)
// and resumes them. Successfully consumed files are removed; files
// that fail to decode or validate are left in place for inspection,
// counted as failed restores, and reported through the first returned
// error. Call it once, after the service is built and before it
// serves traffic.
func (f *Front) RecoverCheckpoints() (int, error) {
	dir := f.CheckpointDir
	if dir == "" {
		return 0, nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.ckpt.json"))
	if err != nil {
		return 0, err
	}
	sort.Strings(paths)
	recovered := 0
	var firstErr error
	for _, path := range paths {
		data, err := os.ReadFile(path)
		var doc JobCheckpoint
		if err == nil {
			err = decodeStrict(bytes.NewReader(data), &doc)
		}
		var j *job
		if err == nil {
			j, err = f.Jobs.Restore(f.Base, &doc)
		}
		if err != nil {
			f.Restores.With("error").Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", filepath.Base(path), err)
			}
			f.Edge.Log.Warn("checkpoint recovery failed", "file", filepath.Base(path), "err", err)
			continue
		}
		f.Restores.With("ok").Inc()
		os.Remove(path)
		recovered++
		f.Edge.Log.Info("checkpoint recovered",
			"file", filepath.Base(path), "job", j.id, "total", len(doc.Runs), "done", len(doc.Outcomes))
	}
	return recovered, firstErr
}

// pruneCheckpointFiles removes on-disk documents of jobs that reached
// a genuinely terminal state — a stale file would re-run finished (or
// deliberately cancelled) work on the next recovery.
func (f *Front) pruneCheckpointFiles() {
	if f.CheckpointDir == "" {
		return
	}
	for _, j := range f.Jobs.all() {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		switch st {
		case JobDone, JobFailed, JobCancelled:
			os.Remove(checkpointFileName(f.CheckpointDir, j.id))
		}
	}
}

// autoCheckpointLoop periodically writes running jobs' documents to
// the checkpoint directory, bounding what a crash (as opposed to a
// graceful drain) can lose to one interval's outcomes. Ticks are
// skipped while draining — Drain's own checkpoint pass owns that
// window.
func (s *Server) autoCheckpointLoop() {
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
		}
		if s.draining.Load() {
			continue
		}
		s.autoCheckpointOnce()
	}
}

// autoCheckpointOnce writes one document per active job, without
// pausing it, and prunes documents of terminal ones.
func (s *Server) autoCheckpointOnce() {
	for _, j := range s.jobs.all() {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		switch st {
		case JobDone, JobFailed, JobCancelled, JobCheckpointed:
			os.Remove(checkpointFileName(s.cfg.CheckpointDir, j.id))
			continue
		}
		if err := writeCheckpointFile(s.cfg.CheckpointDir, j.checkpointDoc()); err != nil {
			s.log.Warn("auto-checkpoint failed", "job", j.id, "err", err)
			continue
		}
		s.met.checkpoints.Inc()
	}
}

// --- handlers ---

// checkpointJob answers POST /v1/jobs/{id}/checkpoint: pause the job,
// stopping its in-flight runs at their next step boundary, and return
// the checkpoint document. Deliberately not gated on draining —
// checkpointing is how work leaves a draining service.
func (f *Front) checkpointJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	start := time.Now()
	doc, err := f.Jobs.Checkpoint(r.Context(), id)
	switch {
	case errors.Is(err, errNoSuchJob):
		WriteError(w, http.StatusNotFound, "server: no such job %q", id)
		return
	case err != nil:
		// The pause did not settle within the request deadline; the
		// job keeps running, the client can retry.
		w.Header().Set("Retry-After", ShedRetryAfter)
		WriteError(w, http.StatusServiceUnavailable, "server: checkpoint did not settle: %v", err)
		return
	}
	f.Checkpoints.Inc()
	if tr := f.Edge.Tracer; tr != nil {
		if sc, ok := obs.SpanContextFromContext(r.Context()); ok {
			tr.Emit(sc, f.Edge.Service+".checkpoint", start, time.Since(start), map[string]string{
				"job":      id,
				"outcomes": strconv.Itoa(len(doc.Outcomes)),
			})
		}
	}
	WriteJSON(w, http.StatusOK, doc)
}

// restoreJob answers POST /v1/jobs/restore: decode and validate a
// checkpoint document and resume it as a fresh job. Every rejected
// document counts as a failed restore, whether the strict decode or
// the validation refused it. Restores reject while draining (they are
// new work).
func (f *Front) restoreJob(w http.ResponseWriter, r *http.Request) {
	if f.RejectIfDraining(w) {
		return
	}
	var doc JobCheckpoint
	if !DecodeBody(w, r, f.MaxBodyBytes, &doc) {
		f.Restores.With("error").Inc()
		return
	}
	j, err := f.Jobs.Restore(f.Base, &doc)
	if err != nil {
		f.Restores.With("error").Inc()
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	f.Restores.With("ok").Inc()
	WriteJSON(w, http.StatusAccepted, j.info(false))
}
