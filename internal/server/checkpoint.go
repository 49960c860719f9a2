package server

import (
	"bytes"
	"encoding/base64"
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
	"dvsslack/internal/snapshot"
)

// JobCheckpointVersion is the current job-checkpoint document version.
// Like the snapshot envelope version it is bumped on any layout
// change; readers accept exactly the versions they know.
const JobCheckpointVersion = 1

// JobCheckpoint is the portable record of a paused job: the full run
// list, every outcome already recorded, and a snapshot envelope (a
// replay point: step count plus engine digest) for each run that was
// executing when the pause landed. It is self-contained — restoring
// it on a different daemon (the fleet's live-migration path) or a
// later process (crash recovery) resumes the job bit-identically,
// because each run is deterministic in its request and each envelope
// is bound to its run's canonical scenario key.
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
	// Snapshots maps a decimal run index to the base64 of its snapshot
	// envelope (internal/snapshot framing: versioned, checksummed, and
	// scenario-key-bound).
	Snapshots map[string]string `json:"snapshots,omitempty"`
}

// errNoSuchJob distinguishes "unknown job ID" from transport errors
// on the checkpoint path.
var errNoSuchJob = errors.New("server: no such job")

// ckptKey is the scenario key a run's snapshots are bound to. A
// request that cannot be keyed degrades to "" — consistently on both
// the capture and restore sides, so the binding check still holds.
func ckptKey(req *SimRequest) string {
	key, err := ScenarioKey(req)
	if err != nil {
		return ""
	}
	return key
}

// materialize validates the document and decodes its snapshots into
// run-indexed envelopes. Everything fails closed: a version mismatch,
// an invalid run, an out-of-range or duplicate outcome, a snapshot for
// an already-finished run, a corrupt envelope, or an envelope bound to
// a different run's scenario key each reject the whole document.
func (d *JobCheckpoint) materialize() (map[int][]byte, error) {
	if d.Version != JobCheckpointVersion {
		return nil, fmt.Errorf("server: job checkpoint version %d (this build reads version %d)",
			d.Version, JobCheckpointVersion)
	}
	if len(d.Runs) == 0 {
		return nil, errors.New("server: job checkpoint has no runs")
	}
	if len(d.Runs) > MaxBatchRuns {
		return nil, fmt.Errorf("server: job checkpoint has %d runs, limit %d", len(d.Runs), MaxBatchRuns)
	}
	for i := range d.Runs {
		if err := d.Runs[i].Validate(); err != nil {
			return nil, fmt.Errorf("server: checkpoint run %d: %w", i, err)
		}
	}
	finished := make(map[int]bool, len(d.Outcomes))
	for _, ro := range d.Outcomes {
		if ro.Index < 0 || ro.Index >= len(d.Runs) {
			return nil, fmt.Errorf("server: checkpoint outcome index %d out of range [0,%d)", ro.Index, len(d.Runs))
		}
		if finished[ro.Index] {
			return nil, fmt.Errorf("server: duplicate checkpoint outcome for run %d", ro.Index)
		}
		finished[ro.Index] = true
	}
	snaps := make(map[int][]byte, len(d.Snapshots))
	for k, v := range d.Snapshots {
		i, err := strconv.Atoi(k)
		if err != nil || i < 0 || i >= len(d.Runs) {
			return nil, fmt.Errorf("server: checkpoint snapshot key %q is not a run index", k)
		}
		if finished[i] {
			return nil, fmt.Errorf("server: checkpoint run %d has both an outcome and a snapshot", i)
		}
		env, err := base64.StdEncoding.DecodeString(v)
		if err != nil {
			return nil, fmt.Errorf("server: checkpoint snapshot %d: %w", i, err)
		}
		dec, err := snapshot.Decode(env)
		if err != nil {
			return nil, fmt.Errorf("server: checkpoint snapshot %d: %w", i, err)
		}
		if want := ckptKey(&d.Runs[i]); dec.ScenarioKey != want {
			return nil, fmt.Errorf("server: checkpoint snapshot %d: %w", i, snapshot.ErrKeyMismatch)
		}
		snaps[i] = env
	}
	return snaps, nil
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

// RecoverCheckpoints restores every job document found in the
// configured checkpoint directory (a previous process's drain or
// auto-checkpoint output) and resumes them. Successfully consumed
// files are removed; files that fail validation are left in place for
// inspection and reported through the first returned error. Call it
// once, after New and before serving traffic.
func (s *Server) RecoverCheckpoints() (int, error) {
	dir := s.cfg.CheckpointDir
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
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			err = dec.Decode(&doc)
		}
		var j *job
		if err == nil {
			j, err = s.jobs.Restore(s.baseCtx, &doc)
		}
		if err != nil {
			s.met.restores.With("error").Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", filepath.Base(path), err)
			}
			s.log.Warn("checkpoint recovery failed", "file", filepath.Base(path), "err", err)
			continue
		}
		s.met.restores.With("ok").Inc()
		os.Remove(path)
		recovered++
		s.log.Info("checkpoint recovered",
			"file", filepath.Base(path), "job", j.id, "total", len(doc.Runs), "done", len(doc.Outcomes))
	}
	return recovered, firstErr
}

// pruneCheckpointFiles removes on-disk documents of jobs that reached
// a genuinely terminal state — a stale file would re-run finished (or
// deliberately cancelled) work on the next recovery.
func (s *Server) pruneCheckpointFiles() {
	if s.cfg.CheckpointDir == "" {
		return
	}
	for _, j := range s.jobs.all() {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		switch st {
		case JobDone, JobFailed, JobCancelled:
			os.Remove(checkpointFileName(s.cfg.CheckpointDir, j.id))
		}
	}
}

// autoCheckpointLoop periodically snapshots running jobs to the
// checkpoint directory, bounding what a crash (as opposed to a
// graceful drain) can lose to one interval. Ticks are skipped while
// draining — Shutdown's own checkpoint pass owns that window.
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

// autoCheckpointOnce writes one live document per active job and
// prunes documents of terminal ones. Live captures are bounded by
// half the interval (at most 1s): a run that cannot reach a step
// boundary in time simply keeps its previous snapshot.
func (s *Server) autoCheckpointOnce() {
	wait := s.cfg.CheckpointInterval / 2
	if wait > time.Second {
		wait = time.Second
	}
	for _, j := range s.jobs.all() {
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		switch st {
		case JobDone, JobFailed, JobCancelled, JobCheckpointed:
			os.Remove(checkpointFileName(s.cfg.CheckpointDir, j.id))
			continue
		}
		if err := writeCheckpointFile(s.cfg.CheckpointDir, j.liveCheckpoint(wait)); err != nil {
			s.log.Warn("auto-checkpoint failed", "job", j.id, "err", err)
			continue
		}
		s.met.checkpoints.Inc()
	}
}

// --- handlers ---

// handleCheckpointJob answers POST /v1/jobs/{id}/checkpoint: pause the
// job at the next step boundary of each in-flight run and return the
// full checkpoint document. Deliberately not gated on draining —
// checkpointing is how work leaves a draining daemon.
func (s *Server) handleCheckpointJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	start := time.Now()
	doc, err := s.jobs.Checkpoint(r.Context(), id)
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
	s.met.checkpoints.Inc()
	if s.tracer != nil {
		if sc, ok := obs.SpanContextFromContext(r.Context()); ok {
			s.tracer.Emit(sc, "dvsd.checkpoint", start, time.Since(start), map[string]string{
				"job":       id,
				"snapshots": strconv.Itoa(len(doc.Snapshots)),
				"outcomes":  strconv.Itoa(len(doc.Outcomes)),
			})
		}
	}
	WriteJSON(w, http.StatusOK, doc)
}

// handleRestoreJob answers POST /v1/jobs/restore: validate a
// checkpoint document and resume it as a fresh job. Restores reject
// while draining (they are new work).
func (s *Server) handleRestoreJob(w http.ResponseWriter, r *http.Request) {
	if s.rejectIfDraining(w) {
		return
	}
	var doc JobCheckpoint
	if !DecodeBody(w, r, s.cfg.MaxBodyBytes, &doc) {
		return
	}
	j, err := s.jobs.Restore(s.baseCtx, &doc)
	if err != nil {
		s.met.restores.With("error").Inc()
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.restores.With("ok").Inc()
	WriteJSON(w, http.StatusAccepted, j.info(false))
}
