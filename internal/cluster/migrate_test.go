package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"testing"
	"time"

	"dvsslack/client"
	"dvsslack/internal/obs"
	"dvsslack/internal/server"
)

// longFleetRequest mirrors the server package's long-horizon request:
// ~200ms of simulation, so a drain lands mid-run and leaves runs to
// re-run on the successor.
func longFleetRequest(policy string, seed uint64) server.SimRequest {
	req := testRequest(policy, seed)
	req.Horizon = 1e6
	return req
}

// canonFleetResults is the migration test's equality lens: outcomes
// sorted by index with wall time and cache provenance zeroed —
// everything else must survive the move bit-for-bit.
func canonFleetResults(t *testing.T, ros []server.RunOutcome) string {
	t.Helper()
	cp := make([]server.RunOutcome, len(ros))
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

// TestDrainMigration drives the fleet's live-migration path: a job
// running on one worker is checkpointed mid-simulation by POST
// /v1/cluster/drain, restored on a ring successor, which re-runs the
// unfinished runs, and finishes there with outcomes byte-identical to
// an uninterrupted local run.
func TestDrainMigration(t *testing.T) {
	f := newTestFleet(t, 3, Config{
		HealthInterval: time.Hour, // keep the checker quiet
		Tracer:         obs.NewTracer("dvsfleet", 256),
	})
	ctx := context.Background()

	src := f.workers[0].Addr()
	wc := client.New("http://" + src)
	batch := server.BatchRequest{Name: "migrate-me"}
	batch.Runs = append(batch.Runs,
		longFleetRequest("lpshe", 51), longFleetRequest("cc", 52), longFleetRequest("dra", 53))
	info, err := wc.CreateJob(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)

	resp, err := http.Post(f.hs.URL+"/v1/cluster/drain?worker="+src, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain status = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Drained  string `json:"drained"`
		Migrated int    `json:"migrated"`
		Failed   int    `json:"failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Drained != src || body.Migrated < 1 || body.Failed != 0 {
		t.Fatalf("drain response %+v, want drained=%s migrated>=1 failed=0", body, src)
	}

	// The source keeps the paused husk; the successor runs the job.
	srcJob, err := wc.Job(ctx, info.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if srcJob.State != server.JobCheckpointed {
		t.Fatalf("source job state = %s, want %s", srcJob.State, server.JobCheckpointed)
	}
	if srcJob.Done >= srcJob.Total {
		t.Fatalf("source job recorded %d of %d runs; the drain landed after completion", srcJob.Done, srcJob.Total)
	}

	var final server.JobInfo
	var found bool
	for _, w := range f.workers[1:] {
		dc := client.New("http://" + w.Addr())
		jobs, err := dc.Jobs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if j.Name != batch.Name {
				continue
			}
			if found {
				t.Fatalf("job restored on more than one worker")
			}
			found = true
			wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
			final, err = dc.WaitJob(wctx, j.ID, 20*time.Millisecond)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if !found {
		t.Fatal("migrated job not found on any other worker")
	}
	if final.State != server.JobDone {
		t.Fatalf("migrated job state = %s (error %q), want done", final.State, final.Error)
	}
	if len(final.Results) != len(batch.Runs) {
		t.Fatalf("migrated job has %d results, want %d", len(final.Results), len(batch.Runs))
	}

	// Reference: the same batch run uninterrupted on the last worker.
	rc := client.New("http://" + f.workers[2].Addr())
	refBatch := batch
	refBatch.Name = "migrate-ref"
	refInfo, err := rc.CreateJob(ctx, refBatch)
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	ref, err := rc.WaitJob(wctx, refInfo.ID, 20*time.Millisecond)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if ref.State != server.JobDone {
		t.Fatalf("reference job state = %s, want done", ref.State)
	}
	if got, want := canonFleetResults(t, final.Results), canonFleetResults(t, ref.Results); got != want {
		t.Errorf("migrated outcomes differ from uninterrupted run:\n got %s\nwant %s", got, want)
	}

	// The counter and the span both record the move.
	mresp, err := http.Get(f.hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap FleetSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Migrations < 1 {
		t.Errorf("fleet snapshot migrations = %d, want >= 1", snap.Migrations)
	}

	dump := fleetTraceDump(t, f.hs.URL)
	var migrateSpan *obs.SpanRecord
	for i := range dump.Spans {
		if dump.Spans[i].Name == "fleet.migrate" {
			migrateSpan = &dump.Spans[i]
			break
		}
	}
	if migrateSpan == nil {
		t.Fatal("no fleet.migrate span recorded")
	}
	if migrateSpan.Attrs["from"] != src || migrateSpan.Attrs["outcome"] != "ok" {
		t.Errorf("fleet.migrate span attrs = %v, want from=%s outcome=ok", migrateSpan.Attrs, src)
	}
}
