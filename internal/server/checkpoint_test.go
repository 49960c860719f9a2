package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"dvsslack/internal/obs"
	"dvsslack/internal/sim"
	"dvsslack/internal/snapshot"
)

// longRequest is quickstartRequest stretched to ~200ms of wall time
// (horizon 1e6 ≈ 750k scheduling events at ~0.3µs each), so a pause
// requested a few tens of milliseconds in reliably lands mid-run.
func longRequest(policy string, seed uint64) SimRequest {
	req := quickstartRequest(policy)
	req.Horizon = 1e6
	req.Workload.Seed = seed
	return req
}

// waitJobAny is waitJob with JobCheckpointed accepted as terminal.
func waitJobAny(t *testing.T, base, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id + "?results=1")
		if err != nil {
			t.Fatal(err)
		}
		info := decodeResp[JobInfo](t, resp, http.StatusOK)
		switch info.State {
		case JobDone, JobFailed, JobCancelled, JobCheckpointed:
			return info
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("job did not settle in time")
	return JobInfo{}
}

// canonResults renders run outcomes in a transport-independent form:
// sorted by index, with the fields that legitimately differ between a
// fresh and a resumed execution (wall time, cache provenance) zeroed.
// Everything else must be byte-identical.
func canonResults(t *testing.T, ros []RunOutcome) string {
	t.Helper()
	cp := make([]RunOutcome, len(ros))
	copy(cp, ros)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Index < cp[j].Index })
	for i := range cp {
		if cp[i].Result != nil {
			r := *cp[i].Result
			r.WallNanos = 0
			r.Cached = false
			cp[i].Result = &r
		}
	}
	b, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func cloneDoc(t *testing.T, doc JobCheckpoint) JobCheckpoint {
	t.Helper()
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var out JobCheckpoint
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPoolPauseResumeDeterminism pins the core checkpoint contract at
// the pool level: pausing a run mid-simulation and resuming it from
// the returned envelope yields exactly the result of an uninterrupted
// run — including the audit verdict.
func TestPoolPauseResumeDeterminism(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	ref, _ := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	req := longRequest("lpshe", 11)
	req.Audit = true
	want, err := ref.pool.Do(ctx, &req)
	if err != nil {
		t.Fatal(err)
	}

	type runOut struct {
		res  SimResult
		ckpt []byte
		err  error
	}
	ctl := &runControl{}
	done := make(chan runOut, 1)
	go func() {
		res, ckpt, err := s.pool.DoRun(ctx, &req, nil, ctl)
		done <- runOut{res, ckpt, err}
	}()
	time.Sleep(40 * time.Millisecond)

	// A live capture must not disturb the run.
	live := <-ctl.Capture()
	if live.err != nil {
		t.Fatalf("live capture: %v", live.err)
	}
	if len(live.data) == 0 {
		t.Fatal("live capture returned an empty envelope")
	}

	ctl.Pause()
	o := <-done
	if o.err != nil {
		t.Fatalf("paused run: %v", o.err)
	}
	if o.ckpt == nil {
		t.Fatal("run finished before the pause landed; raise longRequest's horizon")
	}

	for name, snap := range map[string][]byte{"pause": o.ckpt, "live": live.data} {
		res, ckpt2, err := s.pool.DoRun(ctx, &req, snap, nil)
		if err != nil {
			t.Fatalf("resume from %s snapshot: %v", name, err)
		}
		if ckpt2 != nil {
			t.Fatalf("resume from %s snapshot returned a checkpoint without a pause", name)
		}
		res.WallNanos, res.Cached = 0, false
		w := want
		w.WallNanos, w.Cached = 0, false
		if !reflect.DeepEqual(res, w) {
			t.Errorf("resume from %s snapshot diverged:\n got %+v\nwant %+v", name, res, w)
		}
	}
}

// TestPauseDuringReplay pins the checkpoint handshake of a resumed
// run: while the run is still replaying its prefix, a live capture and
// a pause must both land at the next step boundary and answer with the
// envelope being replayed, not wait for the replay to finish. The
// snapshot sits a quarter of a million steps into longRequest, so a
// pause that waited for the replay would return a later envelope. The
// same holds one layer up: checkpointing a just-restored job leaves it
// checkpointed with the document it was restored from.
func TestPauseDuringReplay(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	ctx := context.Background()

	req := longRequest("lpshe", 12)
	cfg, err := req.Config()
	if err != nil {
		t.Fatal(err)
	}
	key, err := req.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 250_000; i++ {
		if !e.Step() {
			t.Fatal("run finished before the snapshot position; raise longRequest's horizon")
		}
	}
	snap := snapshot.Capture(key, e)

	type runOut struct {
		ckpt []byte
		err  error
	}
	ctl := &runControl{}
	// Requested before the run starts, so the first replay boundary
	// answers it.
	liveCh := ctl.Capture()
	done := make(chan runOut, 1)
	go func() {
		_, ckpt, err := s.pool.DoRun(ctx, &req, snap, ctl)
		done <- runOut{ckpt, err}
	}()
	live := <-liveCh
	if live.err != nil || !bytes.Equal(live.data, snap) {
		t.Fatalf("live capture during replay = %d bytes (err %v), want the resumed envelope", len(live.data), live.err)
	}

	ctl.Pause()
	o := <-done
	if o.err != nil {
		t.Fatalf("paused run: %v", o.err)
	}
	if !bytes.Equal(o.ckpt, snap) {
		t.Fatalf("pause returned a %d-byte envelope other than the resumed one; it did not land during the replay", len(o.ckpt))
	}

	doc := JobCheckpoint{
		Version:   JobCheckpointVersion,
		Runs:      []SimRequest{req},
		Snapshots: map[string]string{"0": base64.StdEncoding.EncodeToString(snap)},
	}
	info := decodeResp[JobInfo](t, postJSON(t, hs.URL+"/v1/jobs/restore", doc), http.StatusAccepted)
	again := decodeResp[JobCheckpoint](t,
		postJSON(t, hs.URL+"/v1/jobs/"+info.ID+"/checkpoint", nil), http.StatusOK)
	if !reflect.DeepEqual(again.Snapshots, doc.Snapshots) || len(again.Outcomes) != 0 {
		t.Fatalf("checkpoint of a replaying job = %d snapshots, %d outcomes; want the restored document back",
			len(again.Snapshots), len(again.Outcomes))
	}
	if st := waitJobAny(t, hs.URL, info.ID).State; st != JobCheckpointed {
		t.Fatalf("job state = %s, want %s", st, JobCheckpointed)
	}
}

// TestJobCheckpointRestoreHTTP drives the full HTTP lifecycle: a
// mixed-policy batch is checkpointed mid-flight on one daemon and
// restored on a second; the merged outcomes must be byte-identical to
// an uninterrupted run of the same batch on a third.
func TestJobCheckpointRestoreHTTP(t *testing.T) {
	_, hsA := newTestServer(t, Config{Workers: 2, CacheSize: -1})
	_, hsB := newTestServer(t, Config{Workers: 2, CacheSize: -1})
	_, hsC := newTestServer(t, Config{Workers: 2, CacheSize: -1})

	batch := BatchRequest{Name: "ckpt-lifecycle"}
	batch.Runs = append(batch.Runs, longRequest("lpshe", 1), longRequest("cc", 2), longRequest("dra", 3))
	audited := longRequest("static", 4)
	audited.Audit = true
	batch.Runs = append(batch.Runs, audited)

	info := decodeResp[JobInfo](t, postJSON(t, hsA.URL+"/v1/jobs", batch), http.StatusAccepted)
	time.Sleep(40 * time.Millisecond)

	doc := decodeResp[JobCheckpoint](t,
		postJSON(t, hsA.URL+"/v1/jobs/"+info.ID+"/checkpoint", nil), http.StatusOK)
	if doc.Version != JobCheckpointVersion {
		t.Fatalf("checkpoint version = %d, want %d", doc.Version, JobCheckpointVersion)
	}
	if len(doc.Runs) != len(batch.Runs) {
		t.Fatalf("checkpoint carries %d runs, want %d", len(doc.Runs), len(batch.Runs))
	}
	if len(doc.Snapshots) == 0 {
		t.Fatal("checkpoint has no mid-flight snapshots; the pause landed after completion")
	}
	paused := waitJobAny(t, hsA.URL, info.ID)
	if paused.State != JobCheckpointed {
		t.Fatalf("source job state = %s, want %s", paused.State, JobCheckpointed)
	}
	if paused.Checkpointed != len(doc.Snapshots) {
		t.Fatalf("job reports %d checkpointed runs, document has %d", paused.Checkpointed, len(doc.Snapshots))
	}

	restored := decodeResp[JobInfo](t, postJSON(t, hsB.URL+"/v1/jobs/restore", doc), http.StatusAccepted)
	final := waitJobAny(t, hsB.URL, restored.ID)
	if final.State != JobDone {
		t.Fatalf("restored job state = %s (error %q), want done", final.State, final.Error)
	}
	if len(final.Results) != len(batch.Runs) {
		t.Fatalf("restored job has %d results, want %d", len(final.Results), len(batch.Runs))
	}

	straightInfo := decodeResp[JobInfo](t, postJSON(t, hsC.URL+"/v1/jobs", batch), http.StatusAccepted)
	straight := waitJobAny(t, hsC.URL, straightInfo.ID)
	if straight.State != JobDone {
		t.Fatalf("straight job state = %s, want done", straight.State)
	}

	if got, want := canonResults(t, final.Results), canonResults(t, straight.Results); got != want {
		t.Errorf("restored outcomes differ from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestRestoreRejectsCorruptDocuments exercises every fail-closed edge
// of the restore path over HTTP: each tampered document must 400, the
// error counter must move, and the untampered document must still
// restore afterwards.
func TestRestoreRejectsCorruptDocuments(t *testing.T) {
	_, hsA := newTestServer(t, Config{Workers: 2, CacheSize: -1})
	_, hsB := newTestServer(t, Config{Workers: 2, CacheSize: -1})

	batch := BatchRequest{Name: "ckpt-corrupt"}
	batch.Runs = append(batch.Runs, longRequest("lpshe", 21), longRequest("cc", 22))
	info := decodeResp[JobInfo](t, postJSON(t, hsA.URL+"/v1/jobs", batch), http.StatusAccepted)
	time.Sleep(40 * time.Millisecond)
	doc := decodeResp[JobCheckpoint](t,
		postJSON(t, hsA.URL+"/v1/jobs/"+info.ID+"/checkpoint", nil), http.StatusOK)
	if len(doc.Snapshots) == 0 {
		t.Fatal("checkpoint has no snapshots; cannot exercise corruption paths")
	}
	var snapKey string
	for k := range doc.Snapshots {
		snapKey = k
		break
	}

	expectReject := func(name string, tampered JobCheckpoint) {
		t.Helper()
		resp := postJSON(t, hsB.URL+"/v1/jobs/restore", tampered)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: restore status = %d, want 400", name, resp.StatusCode)
		}
	}

	bad := cloneDoc(t, doc)
	bad.Version = 99
	expectReject("future version", bad)

	bad = cloneDoc(t, doc)
	env, err := base64.StdEncoding.DecodeString(bad.Snapshots[snapKey])
	if err != nil {
		t.Fatal(err)
	}
	env[len(env)/2] ^= 0x40 // flip one bit mid-body: checksum must catch it
	bad.Snapshots[snapKey] = base64.StdEncoding.EncodeToString(env)
	expectReject("flipped bit", bad)

	bad = cloneDoc(t, doc)
	bad.Snapshots[snapKey] = "!!! not base64 !!!"
	expectReject("invalid base64", bad)

	// A snapshot filed under a different run's index: the envelope's
	// scenario-key binding must refuse the swap.
	bad = cloneDoc(t, doc)
	other := "0"
	if snapKey == "0" {
		other = "1"
	}
	bad.Snapshots[other] = bad.Snapshots[snapKey]
	delete(bad.Snapshots, snapKey)
	expectReject("snapshot bound to wrong run", bad)

	bad = cloneDoc(t, doc)
	bad.Outcomes = append(bad.Outcomes, RunOutcome{Index: 99})
	expectReject("outcome index out of range", bad)

	bad = cloneDoc(t, doc)
	idx, err := strconv.Atoi(snapKey)
	if err != nil {
		t.Fatal(err)
	}
	bad.Outcomes = append(bad.Outcomes, RunOutcome{Index: idx})
	expectReject("run with both outcome and snapshot", bad)

	expectReject("empty document", JobCheckpoint{Version: JobCheckpointVersion})

	resp, err := http.Get(hsB.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	m := decodeResp[MetricsSnapshot](t, resp, http.StatusOK)
	if m.Restores["error"] < 7 {
		t.Errorf("restore error counter = %d, want >= 7", m.Restores["error"])
	}

	// The untampered document still restores and completes.
	restored := decodeResp[JobInfo](t, postJSON(t, hsB.URL+"/v1/jobs/restore", doc), http.StatusAccepted)
	final := waitJobAny(t, hsB.URL, restored.ID)
	if final.State != JobDone {
		t.Fatalf("restore after rejects: state = %s (error %q), want done", final.State, final.Error)
	}
}

// TestShutdownCheckpointsToDisk pins the drain contract: a blown
// drain deadline with a checkpoint directory configured writes the
// stragglers to disk, and a fresh daemon recovering from that
// directory finishes them with the exact uninterrupted outcomes.
func TestShutdownCheckpointsToDisk(t *testing.T) {
	dir := t.TempDir()

	s1 := New(Config{Workers: 1, CacheSize: -1, CheckpointDir: dir})
	hs1 := httptest.NewServer(s1.Handler())
	batch := BatchRequest{Name: "ckpt-drain"}
	batch.Runs = append(batch.Runs, longRequest("lpshe", 31), longRequest("cc", 32), longRequest("dra", 33))
	info := decodeResp[JobInfo](t, postJSON(t, hs1.URL+"/v1/jobs", batch), http.StatusAccepted)
	time.Sleep(40 * time.Millisecond)
	hs1.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
	err := s1.Shutdown(ctx)
	cancel()
	if err == nil {
		t.Fatal("shutdown drained 3×200ms of simulation in 80ms; expected a blown deadline")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("checkpoint dir holds %d documents after drain, want 1 (%v)", len(files), files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc JobCheckpoint
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("drain wrote an undecodable document: %v", err)
	}
	if doc.JobID != info.ID || len(doc.Runs) != 3 {
		t.Fatalf("drain document job=%s runs=%d, want job=%s runs=3", doc.JobID, len(doc.Runs), info.ID)
	}

	// Second daemon, same directory: recovery resumes the job.
	s2 := New(Config{Workers: 1, CacheSize: -1, CheckpointDir: dir})
	hs2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		hs2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	})
	n, err := s2.RecoverCheckpoints()
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if n != 1 {
		t.Fatalf("recovered %d jobs, want 1", n)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.ckpt.json")); len(left) != 0 {
		t.Fatalf("consumed checkpoint files still on disk: %v", left)
	}

	jobs := decodeResp[[]JobInfo](t, mustGet(t, hs2.URL+"/v1/jobs"), http.StatusOK)
	if len(jobs) != 1 {
		t.Fatalf("recovered daemon lists %d jobs, want 1", len(jobs))
	}
	final := waitJobAny(t, hs2.URL, jobs[0].ID)
	if final.State != JobDone {
		t.Fatalf("recovered job state = %s (error %q), want done", final.State, final.Error)
	}

	_, hsRef := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	refInfo := decodeResp[JobInfo](t, postJSON(t, hsRef.URL+"/v1/jobs", batch), http.StatusAccepted)
	ref := waitJobAny(t, hsRef.URL, refInfo.ID)
	if got, want := canonResults(t, final.Results), canonResults(t, ref.Results); got != want {
		t.Errorf("recovered outcomes differ from uninterrupted run:\n got %s\nwant %s", got, want)
	}
}

// TestWriteCheckpointFileReplaces pins the durable write path: a
// second write for the same job replaces the first document in place
// and leaves no temporary file behind.
func TestWriteCheckpointFileReplaces(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	for _, name := range []string{"first", "second"} {
		doc := &JobCheckpoint{Version: JobCheckpointVersion, JobID: "j1", Name: name}
		if err := writeCheckpointFile(dir, doc); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "j1.ckpt.json" {
		t.Fatalf("checkpoint dir holds %v, want only j1.ckpt.json", entries)
	}
	data, err := os.ReadFile(filepath.Join(dir, "j1.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc JobCheckpoint
	if err := json.Unmarshal(data, &doc); err != nil || doc.Name != "second" {
		t.Fatalf("document = %+v (err %v), want the second write", doc, err)
	}
}

// TestAutoCheckpoint verifies the periodic snapshotter bounds crash
// loss: with an interval configured, a running job's document shows
// up on disk without any drain or API call.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	_, hs := newTestServer(t, Config{
		Workers: 1, CacheSize: -1,
		CheckpointDir: dir, CheckpointInterval: 25 * time.Millisecond,
	})
	batch := BatchRequest{Name: "ckpt-auto"}
	batch.Runs = append(batch.Runs, longRequest("lpshe", 41), longRequest("cc", 42))
	info := decodeResp[JobInfo](t, postJSON(t, hs.URL+"/v1/jobs", batch), http.StatusAccepted)

	deadline := time.Now().Add(10 * time.Second)
	var files []string
	for time.Now().Before(deadline) {
		files, _ = filepath.Glob(filepath.Join(dir, "*.ckpt.json"))
		if len(files) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(files) == 0 {
		t.Fatal("no auto-checkpoint document appeared while the job ran")
	}

	m := decodeResp[MetricsSnapshot](t, mustGet(t, hs.URL+"/metrics"), http.StatusOK)
	if m.Checkpoints < 1 {
		t.Errorf("checkpoint counter = %d, want >= 1", m.Checkpoints)
	}

	req, err := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitJobAny(t, hs.URL, info.ID)
	if final.State != JobCancelled {
		t.Fatalf("cancelled job state = %s, want cancelled", final.State)
	}
}

// TestCheckpointMetricsExposition scrapes /metrics.prom after
// checkpoint and restore traffic (both outcomes) and validates the
// exposition, pinning the new series into the format contract.
func TestCheckpointMetricsExposition(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})

	batch := BatchRequest{Name: "ckpt-metrics"}
	batch.Runs = append(batch.Runs, quickstartRequest("lpshe"), quickstartRequest("cc"))
	info := decodeResp[JobInfo](t, postJSON(t, hs.URL+"/v1/jobs", batch), http.StatusAccepted)
	if done := waitJobAny(t, hs.URL, info.ID); done.State != JobDone {
		t.Fatalf("job state = %s, want done", done.State)
	}

	// Checkpointing a finished job yields a pure-outcome document;
	// restoring it exercises the ok path, a tampered copy the error
	// path.
	doc := decodeResp[JobCheckpoint](t,
		postJSON(t, hs.URL+"/v1/jobs/"+info.ID+"/checkpoint", nil), http.StatusOK)
	if len(doc.Outcomes) != 2 || len(doc.Snapshots) != 0 {
		t.Fatalf("finished-job checkpoint: outcomes=%d snapshots=%d, want 2/0",
			len(doc.Outcomes), len(doc.Snapshots))
	}
	restored := decodeResp[JobInfo](t, postJSON(t, hs.URL+"/v1/jobs/restore", doc), http.StatusAccepted)
	if final := waitJobAny(t, hs.URL, restored.ID); final.State != JobDone {
		t.Fatalf("restored job state = %s, want done", final.State)
	}
	bad := cloneDoc(t, doc)
	bad.Version = 99
	resp := postJSON(t, hs.URL+"/v1/jobs/restore", bad)
	resp.Body.Close()

	m := decodeResp[MetricsSnapshot](t, mustGet(t, hs.URL+"/metrics"), http.StatusOK)
	if m.Checkpoints < 1 || m.Restores["ok"] < 1 || m.Restores["error"] < 1 {
		t.Fatalf("metrics: checkpoints=%d restores=%v, want all moved", m.Checkpoints, m.Restores)
	}

	prom, err := http.Get(hs.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer prom.Body.Close()
	if err := obs.ValidateExposition(prom.Body); err != nil {
		t.Fatalf("exposition invalid after checkpoint traffic: %v", err)
	}
}
