package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"dvsslack/internal/obs"
)

// longRequest is quickstartRequest stretched to ~200ms of wall time
// (horizon 1e6 ≈ 750k scheduling events at ~0.3µs each), ten times
// that under -race: a run that outlives any deadline a test sets
// around it.
func longRequest(policy string, seed uint64) SimRequest {
	req := quickstartRequest(policy)
	req.Horizon = 1e6
	req.Workload.Seed = seed
	return req
}

// ckptRequest is longRequest cut to horizon 3e5, 60–110ms of wall
// time: a pause keyed to its job's first recorded outcome (a quick run
// beside it, see waitOutcome) lands while it still runs, and a test
// can afford to re-run it in full.
func ckptRequest(policy string, seed uint64) SimRequest {
	req := longRequest(policy, seed)
	req.Horizon = 3e5
	return req
}

// waitOutcome polls a job until it has recorded at least one outcome:
// the moment the lifecycle tests pause it, instead of a fixed sleep.
func waitOutcome(t *testing.T, base, id string) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if ji := decodeResp[JobInfo](t, mustGet(t, base+"/v1/jobs/"+id), http.StatusOK); ji.Done >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the job recorded no outcome")
		}
	}
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

func cloneDoc(t testing.TB, doc JobCheckpoint) JobCheckpoint {
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

// waitMetrics polls /metrics until ok accepts a snapshot or the
// deadline passes, and returns the last snapshot with the verdict.
func waitMetrics(t *testing.T, base string, within time.Duration, ok func(MetricsSnapshot) bool) (MetricsSnapshot, bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		m := decodeResp[MetricsSnapshot](t, mustGet(t, base+"/metrics"), http.StatusOK)
		if ok(m) {
			return m, true
		}
		if time.Now().After(deadline) {
			return m, false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobCancelStopsInFlightRuns pins the one stop signal of a job's
// runs: deleting or checkpointing a job stops its in-flight run at the
// next step boundary, so the worker is free again long before the run
// could have finished, and the abandoned run counts as no simulation.
// The run is about ten times longRequest, seconds of simulation.
func TestJobCancelStopsInFlightRuns(t *testing.T) {
	stops := map[string]func(t *testing.T, base, id string){
		"delete": func(t *testing.T, base, id string) {
			req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("cancel status = %d, want 204", resp.StatusCode)
			}
		},
		"checkpoint": func(t *testing.T, base, id string) {
			doc := decodeResp[JobCheckpoint](t, postJSON(t, base+"/v1/jobs/"+id+"/checkpoint", nil), http.StatusOK)
			if len(doc.Outcomes) != 0 {
				t.Fatalf("checkpoint recorded %d outcomes for a run that was stopped", len(doc.Outcomes))
			}
		},
	}
	for name, stop := range stops {
		t.Run(name, func(t *testing.T) {
			_, hs := newTestServer(t, Config{Workers: 1, CacheSize: -1})
			req := longRequest("lpshe", 61)
			req.Horizon = 1e7
			batch := BatchRequest{Name: "stop-" + name, Runs: []SimRequest{req}}
			info := decodeResp[JobInfo](t, postJSON(t, hs.URL+"/v1/jobs", batch), http.StatusAccepted)
			if _, ok := waitMetrics(t, hs.URL, 10*time.Second, func(m MetricsSnapshot) bool { return m.InFlight == 1 }); !ok {
				t.Fatal("the job's run never started")
			}

			stop(t, hs.URL, info.ID)
			m, ok := waitMetrics(t, hs.URL, 2*time.Second, func(m MetricsSnapshot) bool { return m.InFlight == 0 })
			if !ok {
				t.Fatalf("worker still busy 2s after the stop (in_flight %d): the run was not stopped", m.InFlight)
			}
			if m.SimsRun != 0 {
				t.Fatalf("sims_run = %d after the stop, want 0: the run finished instead of stopping", m.SimsRun)
			}
			want := map[string]string{"delete": JobCancelled, "checkpoint": JobCheckpointed}[name]
			if st := waitJobAny(t, hs.URL, info.ID).State; st != want {
				t.Fatalf("job state = %s, want %s", st, want)
			}
		})
	}
}

// TestAbandonedSimulateFillsCache pins the other half of that
// contract: a synchronous run whose caller gave up is not stopped. It
// finishes and fills the result cache for the next identical request.
func TestAbandonedSimulateFillsCache(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	req := longRequest("cc", 62)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.pool.Do(ctx, &req); err == nil {
		t.Fatal("the run finished inside 20ms; raise longRequest's horizon")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if res, ok := s.pool.Lookup(&req); ok {
			if !res.Cached {
				t.Fatal("cache hit not marked cached")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the abandoned run never filled the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobCheckpointRestoreHTTP drives the full HTTP lifecycle: a
// mixed-policy batch is checkpointed mid-flight, after its first
// outcome, on one daemon and restored on a second, which re-runs every
// run without an outcome; the merged outcomes must be byte-identical
// to an uninterrupted run of the same batch on a third.
func TestJobCheckpointRestoreHTTP(t *testing.T) {
	_, hsA := newTestServer(t, Config{Workers: 2, CacheSize: -1})
	_, hsB := newTestServer(t, Config{Workers: 2, CacheSize: -1})
	_, hsC := newTestServer(t, Config{Workers: 2, CacheSize: -1})

	batch := BatchRequest{Name: "ckpt-lifecycle"}
	batch.Runs = append(batch.Runs, quickstartRequest("la"),
		ckptRequest("lpshe", 1), ckptRequest("cc", 2), ckptRequest("dra", 3))
	audited := ckptRequest("static", 4)
	audited.Audit = true
	batch.Runs = append(batch.Runs, audited)

	info := decodeResp[JobInfo](t, postJSON(t, hsA.URL+"/v1/jobs", batch), http.StatusAccepted)
	waitOutcome(t, hsA.URL, info.ID)

	doc := decodeResp[JobCheckpoint](t,
		postJSON(t, hsA.URL+"/v1/jobs/"+info.ID+"/checkpoint", nil), http.StatusOK)
	if doc.Version != JobCheckpointVersion {
		t.Fatalf("checkpoint version = %d, want %d", doc.Version, JobCheckpointVersion)
	}
	if len(doc.Runs) != len(batch.Runs) {
		t.Fatalf("checkpoint carries %d runs, want %d", len(doc.Runs), len(batch.Runs))
	}
	if len(doc.Outcomes) < 1 || len(doc.Outcomes) >= len(doc.Runs) {
		t.Fatalf("checkpoint has %d outcomes for %d runs; the pause did not land mid-job",
			len(doc.Outcomes), len(doc.Runs))
	}
	paused := waitJobAny(t, hsA.URL, info.ID)
	if paused.State != JobCheckpointed {
		t.Fatalf("source job state = %s, want %s", paused.State, JobCheckpointed)
	}
	if paused.Done != len(doc.Outcomes) {
		t.Fatalf("job reports %d done runs, document has %d outcomes", paused.Done, len(doc.Outcomes))
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

// tamperedCheckpoint is one invalid variant of a valid document.
type tamperedCheckpoint struct {
	name string
	body []byte
}

// tamperedCheckpoints derives, from a valid document with at least one
// outcome, one variant per fail-closed edge of the restore path; every
// one must be rejected without registering a job.
func tamperedCheckpoints(t testing.TB, doc JobCheckpoint) []tamperedCheckpoint {
	t.Helper()
	var out []tamperedCheckpoint
	add := func(name string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tamperedCheckpoint{name, b})
	}
	bad := cloneDoc(t, doc)
	bad.Version = 99
	add("future version", bad)

	// Version 1 documents carried mid-run replay points; both shapes
	// are refused, the one with its snapshots map by the strict decode.
	bad = cloneDoc(t, doc)
	bad.Version = 1
	add("version 1", bad)
	v1 := map[string]any{"version": 1, "runs": doc.Runs, "outcomes": doc.Outcomes,
		"snapshots": map[string]string{"0": "RFZTU05BUAACAAAAAAAAAA=="}}
	add("version 1 with snapshots", v1)

	bad = cloneDoc(t, doc)
	bad.Outcomes = append(bad.Outcomes, RunOutcome{Index: 99})
	add("outcome index out of range", bad)

	bad = cloneDoc(t, doc)
	bad.Outcomes = append(bad.Outcomes, bad.Outcomes[0])
	add("duplicate outcome", bad)

	bad = cloneDoc(t, doc)
	bad.Runs[0].Policy = "no-such-policy"
	add("invalid run", bad)

	add("empty document", JobCheckpoint{Version: JobCheckpointVersion})

	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, tamperedCheckpoint{"trailing data", append(b, []byte(" {}")...)})
	return out
}

// TestRestoreRejectsCorruptDocuments exercises every fail-closed edge
// of the restore path over HTTP: each tampered document must 400
// without creating a job and count once as a failed restore, whether
// the strict decode or the validation refused it, and the untampered
// document must still restore afterwards.
func TestRestoreRejectsCorruptDocuments(t *testing.T) {
	_, hsA := newTestServer(t, Config{Workers: 2, CacheSize: -1})
	_, hsB := newTestServer(t, Config{Workers: 2, CacheSize: -1})

	// A quick run beside a long one: the checkpoint holds one outcome
	// and one run to re-run.
	batch := BatchRequest{Name: "ckpt-corrupt"}
	batch.Runs = append(batch.Runs, quickstartRequest("lpshe"), ckptRequest("cc", 22))
	info := decodeResp[JobInfo](t, postJSON(t, hsA.URL+"/v1/jobs", batch), http.StatusAccepted)
	waitOutcome(t, hsA.URL, info.ID)
	doc := decodeResp[JobCheckpoint](t,
		postJSON(t, hsA.URL+"/v1/jobs/"+info.ID+"/checkpoint", nil), http.StatusOK)
	if len(doc.Outcomes) != 1 {
		t.Fatalf("checkpoint holds %d outcomes, want 1", len(doc.Outcomes))
	}

	cases := tamperedCheckpoints(t, doc)
	for _, tc := range cases {
		resp, err := http.Post(hsB.URL+"/v1/jobs/restore", "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: restore status = %d, want 400", tc.name, resp.StatusCode)
		}
		if jobs := decodeResp[[]JobInfo](t, mustGet(t, hsB.URL+"/v1/jobs"), http.StatusOK); len(jobs) != 0 {
			t.Fatalf("%s: rejected restore registered %d jobs", tc.name, len(jobs))
		}
	}

	m := decodeResp[MetricsSnapshot](t, mustGet(t, hsB.URL+"/metrics"), http.StatusOK)
	if m.Restores["error"] != uint64(len(cases)) {
		t.Errorf("restore error counter = %d, want %d, one per rejected document", m.Restores["error"], len(cases))
	}

	// The untampered document still restores and completes.
	restored := decodeResp[JobInfo](t, postJSON(t, hsB.URL+"/v1/jobs/restore", doc), http.StatusAccepted)
	final := waitJobAny(t, hsB.URL, restored.ID)
	if final.State != JobDone {
		t.Fatalf("restore after rejects: state = %s (error %q), want done", final.State, final.Error)
	}
}

// FuzzJobCheckpoint fuzzes the one way a checkpoint document enters a
// daemon, from POST /v1/jobs/restore or a file in the checkpoint
// directory: the strict decode, then the store's Restore, which
// validates before it registers. No input may panic; a rejected one
// returns an error and registers nothing; an accepted one registers
// exactly one job and survives a marshal round trip unchanged.
func FuzzJobCheckpoint(f *testing.F) {
	for _, doc := range seedCheckpoints(f) {
		b, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for _, tc := range tamperedCheckpoints(f, doc) {
			f.Add(tc.body)
		}
	}
	stopped, stop := context.WithCancel(context.Background())
	stop() // restored jobs settle at once without running anything
	f.Fuzz(func(t *testing.T, data []byte) {
		var doc JobCheckpoint
		decErr := decodeStrict(bytes.NewReader(data), &doc)
		store := NewJobStore("f", func() int { return 1 },
			func(ctx context.Context, _ *SimRequest) (SimResult, error) { return SimResult{}, ctx.Err() },
			&obs.Counter{}, &obs.Counter{}, nil)
		var err error
		if decErr == nil {
			_, err = store.Restore(stopped, &doc)
		}
		registered := len(store.List())
		if decErr != nil || err != nil {
			if registered != 0 {
				t.Fatalf("rejected document (decode %v, restore %v) registered %d jobs", decErr, err, registered)
			}
			return
		}
		if registered != 1 {
			t.Fatalf("accepted document registered %d jobs, want 1", registered)
		}
		b1, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("accepted document does not marshal: %v", err)
		}
		var again JobCheckpoint
		if err := decodeStrict(bytes.NewReader(b1), &again); err != nil {
			t.Fatalf("accepted document does not decode after marshalling: %v", err)
		}
		if b2, _ := json.Marshal(again); !bytes.Equal(b1, b2) {
			t.Fatalf("marshal round trip changed the document:\n%s\n%s", b1, b2)
		}
	})
}

// seedCheckpoints produces real documents from a daemon's job store:
// one taken from a job paused with one run finished and one in flight,
// and one of a finished job.
func seedCheckpoints(tb testing.TB) []JobCheckpoint {
	s := New(Config{Workers: 2, CacheSize: -1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	ctx := context.Background()
	wait := func(j *job, done func(JobInfo) bool) {
		for deadline := time.Now().Add(60 * time.Second); !done(j.info(false)); time.Sleep(2 * time.Millisecond) {
			if time.Now().After(deadline) {
				tb.Fatal("seed job did not progress")
			}
		}
	}
	var docs []JobCheckpoint
	paused := s.jobs.Create(ctx, "seed-paused", []SimRequest{quickstartRequest("lpshe"), ckptRequest("dra", 71)})
	wait(paused, func(i JobInfo) bool { return i.Done >= 1 })
	doc, err := s.jobs.Checkpoint(ctx, paused.id)
	if err != nil {
		tb.Fatal(err)
	}
	docs = append(docs, *doc)
	finished := s.jobs.Create(ctx, "seed-finished", []SimRequest{quickstartRequest("cc"), quickstartRequest("la")})
	wait(finished, func(i JobInfo) bool { return i.State == JobDone })
	if doc, err = s.jobs.Checkpoint(ctx, finished.id); err != nil {
		tb.Fatal(err)
	}
	return append(docs, *doc)
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
	batch.Runs = append(batch.Runs, quickstartRequest("la"),
		ckptRequest("lpshe", 31), ckptRequest("cc", 32), ckptRequest("dra", 33))
	info := decodeResp[JobInfo](t, postJSON(t, hs1.URL+"/v1/jobs", batch), http.StatusAccepted)
	waitOutcome(t, hs1.URL, info.ID)
	hs1.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	err := s1.Shutdown(ctx)
	cancel()
	if err == nil {
		t.Fatal("shutdown drained at least two long runs on one worker in 1ms; expected a blown deadline")
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
	if doc.Version != JobCheckpointVersion || doc.JobID != info.ID || len(doc.Runs) != len(batch.Runs) {
		t.Fatalf("drain document version=%d job=%s runs=%d, want version=%d job=%s runs=%d",
			doc.Version, doc.JobID, len(doc.Runs), JobCheckpointVersion, info.ID, len(batch.Runs))
	}
	if len(doc.Outcomes) < 1 || len(doc.Outcomes) >= len(doc.Runs) {
		t.Fatalf("drain document has %d outcomes for %d runs; the drain landed after completion",
			len(doc.Outcomes), len(doc.Runs))
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

// TestShutdownIdleExpiredContext pins that a daemon with nothing left
// to drain — no jobs, or only finished ones — shuts down cleanly even
// on an already-expired context: neither an idle pool's exiting
// workers nor a finished job may read as an unfinished drain.
func TestShutdownIdleExpiredContext(t *testing.T) {
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		s := New(Config{Workers: 2})
		if i%2 == 1 {
			j := s.jobs.Create(context.Background(), "finished", []SimRequest{quickstartRequest("cc")})
			<-j.finished
		}
		if err := s.Shutdown(expired); err != nil {
			t.Fatalf("attempt %d: idle Shutdown on an expired context = %v, want nil", i, err)
		}
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

// TestAutoCheckpoint verifies the periodic checkpointer bounds crash
// loss: with an interval configured, a running job's document shows
// up on disk without any drain or API call, and it records only the
// outcomes so far.
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
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc JobCheckpoint
	if err := decodeStrict(bytes.NewReader(data), &doc); err != nil {
		t.Fatalf("auto-checkpoint wrote an undecodable document: %v", err)
	}
	if doc.Version != JobCheckpointVersion || len(doc.Runs) != 2 || len(doc.Outcomes) >= len(doc.Runs) {
		t.Fatalf("auto-checkpoint document version=%d runs=%d outcomes=%d, want version=%d, 2 runs, fewer outcomes",
			doc.Version, len(doc.Runs), len(doc.Outcomes), JobCheckpointVersion)
	}

	// The counter moves once the write returns, after the directory
	// sync that follows the rename the file appeared by.
	if m, ok := waitMetrics(t, hs.URL, 10*time.Second, func(m MetricsSnapshot) bool { return m.Checkpoints >= 1 }); !ok {
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
	if len(doc.Outcomes) != 2 {
		t.Fatalf("finished-job checkpoint: outcomes=%d, want 2", len(doc.Outcomes))
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
