package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dvsslack/client"
	"dvsslack/internal/obs"
	"dvsslack/internal/server"
)

// ckptFleetRequest is testRequest at horizon 2e5, 40–80ms of wall
// time: a pause keyed to its job's first recorded outcome (a quick run
// beside it) lands while it still runs, and a test can afford to re-run
// it in full.
func ckptFleetRequest(policy string, seed uint64) server.SimRequest {
	req := testRequest(policy, seed)
	req.Horizon = 2e5
	return req
}

// waitFleetOutcome polls a job until it has recorded at least one
// outcome: the moment these tests pause it.
func waitFleetOutcome(t *testing.T, c *client.Client, id string) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		info, err := c.Job(context.Background(), id, false)
		if err != nil {
			t.Fatal(err)
		}
		if info.Done >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the job recorded no outcome")
		}
	}
}

// finishedResults waits for a job to settle, requires it done with one
// outcome per run, and renders the outcomes with the per-execution
// serving metadata (wall_ns, cached) cleared: the lens every fleet-job
// comparison with a dvsd uses.
func finishedResults(t *testing.T, c *client.Client, id string, runs int) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := c.WaitJob(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != server.JobDone || len(final.Results) != runs {
		t.Fatalf("job %s: state %s (error %q) with %d results, want done with %d",
			id, final.State, final.Error, len(final.Results), runs)
	}
	for _, ro := range final.Results {
		if ro.Result != nil {
			ro.Result.WallNanos, ro.Result.Cached = 0, false
		}
	}
	b, err := json.Marshal(final.Results)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newTestDaemon starts one dvsd behind an httptest listener.
func newTestDaemon(t *testing.T) *client.Client {
	t.Helper()
	d := server.New(server.Config{Workers: 2})
	hs := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	return client.New(hs.URL)
}

// straightResults runs batch uninterrupted on a fresh dvsd: the
// reference every checkpointed job must reproduce.
func straightResults(t *testing.T, batch server.BatchRequest) []byte {
	t.Helper()
	c := newTestDaemon(t)
	info, err := c.CreateJob(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	return finishedResults(t, c, info.ID, len(batch.Runs))
}

// TestFleetJobCheckpointRestore drives checkpoint and restore through
// the coordinator: a fleet job paused after its first outcome yields a
// version 2 document, and that document restored on a fresh fleet and
// on a plain dvsd finishes with the uninterrupted run's results. A
// tampered copy is refused and counted.
func TestFleetJobCheckpointRestore(t *testing.T) {
	tracer := obs.NewTracer("dvsfleet", 256)
	src := newTestFleet(t, 2, Config{Tracer: tracer})
	dst := newTestFleet(t, 2, Config{})
	ctx := context.Background()

	batch := server.BatchRequest{Name: "fleet-ckpt"}
	batch.Runs = append(batch.Runs, testRequest("la", 1),
		ckptFleetRequest("lpshe", 2), ckptFleetRequest("cc", 3), ckptFleetRequest("dra", 4))

	info, err := src.c.CreateJob(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	waitFleetOutcome(t, src.c, info.ID)
	doc, err := src.c.CheckpointJob(ctx, info.ID)
	if err != nil {
		t.Fatalf("checkpoint through the coordinator: %v", err)
	}
	if doc.Version != server.JobCheckpointVersion || doc.JobID != info.ID || len(doc.Runs) != len(batch.Runs) {
		t.Fatalf("document version=%d job=%s runs=%d, want version=%d job=%s runs=%d",
			doc.Version, doc.JobID, len(doc.Runs), server.JobCheckpointVersion, info.ID, len(batch.Runs))
	}
	if len(doc.Outcomes) < 1 || len(doc.Outcomes) >= len(doc.Runs) {
		t.Fatalf("checkpoint has %d outcomes for %d runs; the pause did not land mid-job",
			len(doc.Outcomes), len(doc.Runs))
	}
	paused, err := src.c.Job(ctx, info.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if paused.State != server.JobCheckpointed || paused.Done != len(doc.Outcomes) {
		t.Fatalf("source job %s with %d done, want %s with %d", paused.State, paused.Done,
			server.JobCheckpointed, len(doc.Outcomes))
	}
	if got := src.coord.met.checkpoints.Value(); got != 1 {
		t.Fatalf("dvsfleet_checkpoints_total = %v, want 1", got)
	}
	var span *obs.SpanRecord
	for _, s := range tracer.Dump().Spans {
		if s.Name == "dvsfleet.checkpoint" {
			span = &s
		}
	}
	if span == nil || span.Attrs["job"] != info.ID {
		t.Fatalf("dvsfleet.checkpoint span = %+v, want one for job %s", span, info.ID)
	}

	want := straightResults(t, batch)
	restored, err := dst.c.RestoreJob(ctx, doc)
	if err != nil {
		t.Fatalf("restore through a fresh coordinator: %v", err)
	}
	if got := finishedResults(t, dst.c, restored.ID, len(batch.Runs)); !bytes.Equal(got, want) {
		t.Errorf("fleet-restored results differ from the uninterrupted run:\n got %s\nwant %s", got, want)
	}
	d := newTestDaemon(t)
	onDaemon, err := d.RestoreJob(ctx, doc)
	if err != nil {
		t.Fatalf("restore on dvsd: %v", err)
	}
	if got := finishedResults(t, d, onDaemon.ID, len(batch.Runs)); !bytes.Equal(got, want) {
		t.Errorf("dvsd-restored results differ from the uninterrupted run:\n got %s\nwant %s", got, want)
	}

	bad := doc
	bad.Version = 99
	var apiErr *client.APIError
	if _, err := dst.c.RestoreJob(ctx, bad); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("tampered restore error = %v, want a 400", err)
	}
	ok, failed := dst.coord.met.restores.With("ok").Value(), dst.coord.met.restores.With("error").Value()
	if ok != 1 || failed != 1 {
		t.Fatalf("dvsfleet_restores_total ok=%v error=%v, want 1 and 1", ok, failed)
	}
}

// TestFleetShutdownCheckpointsToDisk pins the fleet's drain contract,
// dvsd's own: a coordinator whose drain deadline expires with a job
// running, and CheckpointDir set, writes that job's document to disk
// instead of cancelling it, and a new coordinator over the same
// workers recovers it and finishes with the uninterrupted results.
func TestFleetShutdownCheckpointsToDisk(t *testing.T) {
	dir := t.TempDir()
	f := newTestFleet(t, 2, Config{CheckpointDir: dir})
	ctx := context.Background()

	batch := server.BatchRequest{Name: "fleet-drain"}
	batch.Runs = append(batch.Runs, testRequest("la", 11),
		ckptFleetRequest("lpshe", 12), ckptFleetRequest("cc", 13), ckptFleetRequest("dra", 14))
	info, err := f.c.CreateJob(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	waitFleetOutcome(t, f.c, info.ID)
	f.hs.Close()
	drain, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	if err := f.coord.Shutdown(drain); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown error = %v, want context.DeadlineExceeded", err)
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
	var doc server.JobCheckpoint
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("drain wrote an undecodable document: %v", err)
	}
	if doc.Version != server.JobCheckpointVersion || doc.JobID != info.ID ||
		len(doc.Runs) != len(batch.Runs) || len(doc.Outcomes) < 1 || len(doc.Outcomes) >= len(doc.Runs) {
		t.Fatalf("drain document version=%d job=%s runs=%d outcomes=%d, want version=%d job=%s runs=%d and 1 to %d outcomes",
			doc.Version, doc.JobID, len(doc.Runs), len(doc.Outcomes),
			server.JobCheckpointVersion, info.ID, len(batch.Runs), len(batch.Runs)-1)
	}
	if got := f.coord.met.checkpoints.Value(); got != 1 {
		t.Fatalf("dvsfleet_checkpoints_total = %v, want 1", got)
	}

	next := New(Config{Workers: Addrs(f.workers), CheckpointDir: dir})
	next.Start()
	hs := httptest.NewServer(next.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		next.Shutdown(ctx)
	})
	if n, err := next.RecoverCheckpoints(); n != 1 || err != nil {
		t.Fatalf("recovered %d jobs (err %v), want 1", n, err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.ckpt.json")); len(left) != 0 {
		t.Fatalf("consumed checkpoint files still on disk: %v", left)
	}
	c := client.New(hs.URL)
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("recovering coordinator lists %d jobs, want 1", len(jobs))
	}
	if got, want := finishedResults(t, c, jobs[0].ID, len(batch.Runs)), straightResults(t, batch); !bytes.Equal(got, want) {
		t.Errorf("recovered results differ from the uninterrupted run:\n got %s\nwant %s", got, want)
	}
	if got := next.met.restores.With("ok").Value(); got != 1 {
		t.Fatalf("dvsfleet_restores_total{outcome=\"ok\"} = %v, want 1", got)
	}
}

// TestFleetPausedRunsSimulateOnce pins why pausing or cancelling a
// fleet job leaves its routed runs alone: they are synchronous
// simulates that finish on their owner and fill its cache, and a
// restore routes each re-run by the same key, so it is a cache hit.
// A job with more runs than the fan-out width is checkpointed after its
// first outcome, some runs routed and some not; once the workers are
// idle, a fresh coordinator over the same workers restores it. Across
// both halves every run is simulated exactly once, and the results are
// the uninterrupted run's.
func TestFleetPausedRunsSimulateOnce(t *testing.T) {
	f := newTestFleet(t, 2, Config{HealthInterval: time.Hour})
	ctx := context.Background()

	// A quick run, then as many long ones as the fan-out width keeps
	// in flight, then a quick one routed only once a slot frees after
	// the quick first run's: at the pause, runs 1 to width are routed
	// and the last is not. Twice as many long runs as the two workers'
	// pools hold keep the pause mid-job at a shorter horizon.
	width := 4 * len(f.workers)
	batch := server.BatchRequest{Name: "fleet-once"}
	batch.Runs = append(batch.Runs, testRequest("la", 21))
	for i := 0; i < width; i++ {
		r := ckptFleetRequest([]string{"lpshe", "cc", "dra"}[i%3], uint64(22+i))
		r.Horizon = 1e5
		batch.Runs = append(batch.Runs, r)
	}
	batch.Runs = append(batch.Runs, testRequest("la", 40))
	info, err := f.c.CreateJob(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	waitFleetOutcome(t, f.c, info.ID)
	doc, err := f.c.CheckpointJob(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Outcomes) >= len(doc.Runs) {
		t.Fatalf("checkpoint has an outcome for all %d runs; the pause landed after completion", len(doc.Runs))
	}

	// Idle: nothing queued or running on any worker, and no simulation
	// finishing, across three polls 100ms apart (a routed request still
	// on the wire would start one).
	sims := func() (total uint64, busy bool) {
		for _, w := range f.workers {
			m, err := client.New(w.Addr()).Metrics(ctx)
			if err != nil {
				t.Fatal(err)
			}
			total += m.SimsRun
			busy = busy || m.InFlight > 0 || m.QueueDepth > 0
		}
		return total, busy
	}
	for deadline, last, quiet := time.Now().Add(60*time.Second), uint64(0), 0; quiet < 3; time.Sleep(100 * time.Millisecond) {
		n, busy := sims()
		if quiet++; busy || n != last {
			quiet = 0
		}
		last = n
		if time.Now().After(deadline) {
			t.Fatal("the workers never went idle after the pause")
		}
	}

	next := New(Config{Workers: Addrs(f.workers), HealthInterval: time.Hour})
	next.Start()
	hs := httptest.NewServer(next.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		next.Shutdown(ctx)
	})
	c := client.New(hs.URL)
	restored, err := c.RestoreJob(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	got := finishedResults(t, c, restored.ID, len(batch.Runs))
	if n, _ := sims(); n != uint64(len(batch.Runs)) {
		t.Errorf("workers simulated %d times across checkpoint and restore, want %d: once per run", n, len(batch.Runs))
	}
	if want := straightResults(t, batch); !bytes.Equal(got, want) {
		t.Errorf("restored results differ from the uninterrupted run:\n got %s\nwant %s", got, want)
	}
}
