package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dvsslack/client"
	"dvsslack/internal/experiment"
	"dvsslack/internal/server"
	"dvsslack/internal/sim"
)

// coordExec mirrors cmd/dvsexp's remote executor: ship each
// measurement to the coordinator, fall back to in-process execution
// for configurations without a wire form.
func coordExec(c *client.Client) experiment.Exec {
	return func(cfg sim.Config) (sim.Result, error) {
		req, err := server.RequestFromConfig(cfg)
		if err != nil {
			return sim.Run(cfg)
		}
		res, err := c.Simulate(context.Background(), req)
		if err != nil {
			return sim.Result{}, fmt.Errorf("fleet run: %w", err)
		}
		return res.Sim(), nil
	}
}

// renderReport flattens a report to the exact bytes dvsexp would
// print (text + CSV), the unit of the byte-identity guarantee.
func renderReport(r *experiment.Report) []byte {
	var buf bytes.Buffer
	r.Print(&buf)
	r.PrintCSV(&buf)
	return buf.Bytes()
}

// TestFleetGridByteIdentical pins the acceptance criterion: the t2
// experiment grid executed through a 3-worker fleet produces a report
// byte-identical to the single-process run — including when a worker
// is killed mid-grid, because routing and failover choose only WHERE
// a deterministic simulation runs, and the harness merges cells in
// submission order regardless of completion order.
func TestFleetGridByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick t2 grid three times")
	}
	opts := experiment.Options{Quick: true, Seeds: 2}

	local, err := experiment.Run("t2", opts)
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(local)

	t.Run("healthy fleet", func(t *testing.T) {
		f := newTestFleet(t, 3, Config{})
		opts := opts
		opts.Exec = coordExec(f.c)
		got, err := experiment.Run("t2", opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(renderReport(got), want) {
			t.Fatalf("fleet report differs from single-process report:\n--- local ---\n%s\n--- fleet ---\n%s",
				want, renderReport(got))
		}
	})

	t.Run("worker killed mid-grid", func(t *testing.T) {
		f := newTestFleet(t, 3, Config{HealthInterval: time.Hour})
		var once sync.Once
		opts := opts
		opts.Exec = coordExec(f.c)
		opts.Progress = func(done, total int) {
			// Kill a worker while the grid is in flight: the remaining
			// cells must fail over with no effect on the report.
			once.Do(func() { f.workers[1].Kill() })
		}
		got, err := experiment.Run("t2", opts)
		if err != nil {
			t.Fatal(err)
		}
		if !f.workers[1].Killed() {
			t.Fatal("kill hook never fired: grid ran no cells")
		}
		if !bytes.Equal(renderReport(got), want) {
			t.Fatalf("fleet report with mid-grid worker kill differs from single-process report:\n--- local ---\n%s\n--- fleet ---\n%s",
				want, renderReport(got))
		}
	})
}

// TestFleetFailoverMetric deterministically drives a request at a
// killed worker's key and asserts the failover counter and /v1/cluster
// reflect it (the probabilistic half of verify.sh's smoke, pinned
// precisely here).
func TestFleetFailoverMetric(t *testing.T) {
	f := newTestFleet(t, 3, Config{HealthInterval: time.Hour})
	ctx := context.Background()

	victim := f.workers[2]
	// Find a request whose key the victim owns; with 3 workers a
	// handful of seeds always suffices.
	var req server.SimRequest
	found := false
	for seed := uint64(0); seed < 64 && !found; seed++ {
		r := testRequest("dra", seed)
		key, err := server.ScenarioKey(&r)
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := f.coord.ring.Lookup(key); owner == victim.Addr() {
			req, found = r, true
		}
	}
	if !found {
		t.Fatalf("no key in 64 seeds owned by %s: ring distribution is broken", victim.Addr())
	}

	victim.Kill()
	if _, err := f.c.Simulate(ctx, req); err != nil {
		t.Fatalf("simulate at dead worker's key: %v", err)
	}

	if n := f.coord.met.failovers.With(victim.Addr()).Value(); n < 1 {
		t.Fatalf("failovers{%s} = %v, want >= 1", victim.Addr(), n)
	}
	found = false
	for _, wi := range f.coord.WorkerInfos() {
		if wi.Addr != victim.Addr() {
			continue
		}
		found = true
		if wi.State != WorkerDown || wi.InRing || wi.FailedOver < 1 {
			t.Fatalf("WorkerInfo for killed worker = %+v", wi)
		}
	}
	if !found {
		t.Fatalf("killed worker %s missing from WorkerInfos", victim.Addr())
	}
}

// TestFleetJobMatchesDaemonJob sends one 12-run batch through a
// 3-worker fleet and through a single dvsd. Fleet jobs run on dvsd's
// job store, so both must return byte-identical results (once the
// per-execution serving metadata, wall_ns and cached, is cleared) and
// the same terminal SSE event, and the fleet must count exactly one
// job, twelve fanned-out runs and one event stream.
func TestFleetJobMatchesDaemonJob(t *testing.T) {
	f := newTestFleet(t, 3, Config{})

	batch := server.BatchRequest{Name: "match"}
	policies := []string{"lpshe", "cc", "la", "dra"}
	for i := 0; i < 12; i++ {
		batch.Runs = append(batch.Runs, testRequest(policies[i%len(policies)], uint64(200+i)))
	}
	run := func(c *client.Client) ([]byte, server.JobEvent) {
		t.Helper()
		ctx := context.Background()
		info, err := c.CreateJob(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		var end server.JobEvent
		if err := c.StreamEvents(ctx, info.ID, func(ev server.JobEvent) error {
			if ev.Type == "end" {
				end = ev
			}
			return nil
		}); err != nil {
			t.Fatalf("stream %s: %v", info.ID, err)
		}
		return finishedResults(t, c, info.ID, len(batch.Runs)), end
	}
	fleetResults, fleetEnd := run(f.c)
	daemonResults, daemonEnd := run(newTestDaemon(t))

	if !bytes.Equal(fleetResults, daemonResults) {
		t.Fatalf("fleet job results differ from dvsd's:\n--- dvsd ---\n%s\n--- fleet ---\n%s", daemonResults, fleetResults)
	}
	if fleetEnd != daemonEnd {
		t.Fatalf("terminal SSE event: fleet %+v, dvsd %+v", fleetEnd, daemonEnd)
	}
	if fleetEnd.Type != "end" || fleetEnd.State != server.JobDone || fleetEnd.Done != 12 {
		t.Fatalf("terminal SSE event = %+v, want end/done with 12 runs", fleetEnd)
	}
	met := f.coord.met
	created, finished := met.jobsCreated.Value(), met.jobsFinished.Value()
	runs, streams := met.fanoutRuns.Value(), met.requests.With("jobs.events").Value()
	if created != 1 || finished != 1 || runs != 12 || streams != 1 {
		t.Fatalf("jobs created %v, finished %v, fan-out runs %v, jobs.events requests %v; want 1, 1, 12, 1",
			created, finished, runs, streams)
	}
}

// TestFleetShutdownSettlesJobs: a fleet job still running when the
// drain deadline expires is cancelled, and Shutdown returns only once
// it has settled — the job already reads cancelled and every created
// job has been counted finished.
func TestFleetShutdownSettlesJobs(t *testing.T) {
	f := newTestFleet(t, 2, Config{})
	ctx := context.Background()

	var batch server.BatchRequest
	for i := 0; i < 8; i++ {
		r := testRequest("lpshe", uint64(300+i))
		// About 4 ms of simulation on one core. The eight runs share
		// the workers' four slots, so the job lasts at least two such
		// waves and outlives a 1 ms drain deadline, while the workers'
		// drain at cleanup, which finishes every dispatched run, stays
		// short under the race detector.
		r.Horizon = 2e4
		batch.Runs = append(batch.Runs, r)
	}
	info, err := f.c.CreateJob(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}

	drain, cancel := context.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	if err := f.coord.Shutdown(drain); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown error = %v, want context.DeadlineExceeded", err)
	}

	got, err := f.c.Job(ctx, info.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != server.JobCancelled {
		t.Fatalf("job state after Shutdown = %s, want %s", got.State, server.JobCancelled)
	}
	created, finished := f.coord.met.jobsCreated.Value(), f.coord.met.jobsFinished.Value()
	if created != 1 || finished != created {
		t.Fatalf("dvsfleet_jobs_created_total = %v, dvsfleet_jobs_finished_total = %v, want both 1", created, finished)
	}
}
