package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"dvsslack/internal/rtm"
	"dvsslack/internal/server"
)

// jobTemplates is how many distinct jobs the cycles rotate through.
// The daemon runs with its result cache off, so a repeated job is
// simulated again, and the references are computed once per job.
const jobTemplates = 8

// rssCycles is the cycle after which jobs-resume reads peak RSS. The
// daemon keeps every finished job, so the high-water mark at the end
// of the window would grow with the number of cycles a faster system
// fits into it; after a fixed number of cycles it compares like with
// like. A window that ends sooner reads it at its end.
const rssCycles = 64

// jobPolicies are the policies every job runs on each of its task sets.
var jobPolicies = []string{"lpshe", "cc", "la", "feedback"}

// jobRuns builds job m of a seed: four 16-task sets, each under the
// four policies over five hyperperiods of the default period pool, so
// a run takes a few to a few tens of milliseconds. The task sets are
// the same in every job (their periods set a run's cost, and drawing
// them per job or per seed moves the cycle time by 20%); the seed and
// m draw every run's actual execution times.
func jobRuns(seed uint64, m int) ([]server.SimRequest, error) {
	var runs []server.SimRequest
	for k := 0; k < 4; k++ {
		ts, err := rtm.Generate(rtm.DefaultGenConfig(16, 0.6+0.1*float64(k%3), uint64(k)*0x9e37+17))
		if err != nil {
			return nil, err
		}
		wl := server.WorkloadSpec{Kind: "uniform", Lo: 0.3, Hi: 1, Seed: seed<<16 | uint64(4*m+k)}
		for _, p := range jobPolicies {
			runs = append(runs, server.SimRequest{TaskSet: ts, Policy: p, Workload: wl, Horizon: 20000})
		}
	}
	return runs, nil
}

// jobsRig is the jobs-resume system under test: one dvsd (pool of 2,
// cache off) behind a loopback listener and one client.
type jobsRig struct {
	jobs [][]server.SimRequest // the job templates
	srv  *server.Server
	ep   *endpoint
	snd  *senders
}

// cycle is the record of one post → checkpoint → restore → done.
type cycle struct {
	job        int
	total      time.Duration
	checkpoint time.Duration
	restore    time.Duration
	resume     time.Duration // restore accepted → job done
	docBytes   int
	resumed    int // runs the restored job still had to execute
	state      string
	results    int      // run outcomes the restored job returned
	digests    []digest // per run index; see outcomeDigests
}

// outcomeDigests keeps, per run index, the canonical digest of each
// returned result (zero where the run failed or returned nothing).
// Only digests are kept, so a long window does not grow the heap the
// system under test shares with the benchmark.
func outcomeDigests(runs int, results []server.RunOutcome) []digest {
	out := make([]digest, runs)
	for _, ro := range results {
		if ro.Error == "" && ro.Result != nil && ro.Index >= 0 && ro.Index < runs {
			out[ro.Index] = canonResult(*ro.Result)
		}
	}
	return out
}

var errHalfway = errors.New("halfway")

// runCycle posts job m, checkpoints the job once about half its runs
// are done, restores the document, and waits for the restored job.
func (j *jobsRig) runCycle(t *tracer, m, n int) (cycle, error) {
	c := j.snd.clients[0]
	cy := cycle{job: m}
	id := func(step string) string { return fmt.Sprintf("pb-c%d-%s", n, step) }
	start := time.Now()
	var info server.JobInfo
	var err error
	t.call(id("create"), "jobs.create", func() int64 {
		info, err = c.CreateJob(requestCtx(id("create")), server.BatchRequest{Name: "perfbench", Runs: j.jobs[m]})
		return 0
	})
	if err != nil {
		return cy, fmt.Errorf("create: %w", err)
	}
	err = c.StreamEvents(context.Background(), info.ID, func(ev server.JobEvent) error {
		if ev.Done*2 >= ev.Total {
			return errHalfway
		}
		return nil
	})
	if err != nil && !errors.Is(err, errHalfway) {
		return cy, fmt.Errorf("events: %w", err)
	}
	var doc server.JobCheckpoint
	t.call(id("checkpoint"), "jobs.checkpoint", func() int64 {
		t0 := time.Now()
		doc, err = c.CheckpointJob(requestCtx(id("checkpoint")), info.ID)
		cy.checkpoint = time.Since(t0)
		return 0
	})
	if err != nil {
		return cy, fmt.Errorf("checkpoint: %w", err)
	}
	b, _ := json.Marshal(doc) // a checkpoint document always marshals
	cy.docBytes = len(b)
	cy.resumed = len(doc.Runs) - len(doc.Outcomes)
	var restored server.JobInfo
	t.call(id("restore"), "jobs.restore", func() int64 {
		t0 := time.Now()
		restored, err = c.RestoreJob(requestCtx(id("restore")), doc)
		cy.restore = time.Since(t0)
		return 0
	})
	if err != nil {
		return cy, fmt.Errorf("restore: %w", err)
	}
	resumeStart := time.Now()
	if err := c.StreamEvents(context.Background(), restored.ID, func(server.JobEvent) error { return nil }); err != nil {
		return cy, fmt.Errorf("restored events: %w", err)
	}
	cy.resume = time.Since(resumeStart)
	final, err := c.Job(context.Background(), restored.ID, true)
	if err != nil {
		return cy, fmt.Errorf("results: %w", err)
	}
	cy.total = time.Since(start)
	cy.state = final.State
	cy.results = len(final.Results)
	cy.digests = outcomeDigests(len(j.jobs[m]), final.Results)
	return cy, nil
}

func setupJobs(seed uint64) (*jobsRig, error) {
	j := &jobsRig{}
	for m := 0; m < jobTemplates; m++ {
		runs, err := jobRuns(seed, m)
		if err != nil {
			return nil, err
		}
		j.jobs = append(j.jobs, runs)
	}
	j.srv = server.New(server.Config{Workers: 2, CacheSize: -1})
	ep, err := listen(j.srv)
	if err != nil {
		return nil, err
	}
	j.ep, j.snd = ep, newSenders(ep.addr)
	// One full cycle lets the job store, the codecs and the pool settle.
	if _, err := j.runCycle(nil, 0, -1); err != nil {
		j.close()
		return nil, fmt.Errorf("warm-up cycle: %w", err)
	}
	return j, nil
}

func (j *jobsRig) close() {
	j.snd.close()
	j.ep.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	j.srv.Shutdown(ctx)
}

// checkCycles compares every restored job's results with straight
// sim.Run of the same runs, computed once per job template, and
// reports which cycles failed.
func checkCycles(o *outcome, tr *tracer, jobs [][]server.SimRequest, cycles []cycle) []bool {
	refs := make([][]digest, len(jobs))
	for m, runs := range jobs {
		refs[m] = computeReferences(o, tr, runs)
	}
	bad := make([]bool, len(cycles))
	for i, cy := range cycles {
		ref := refs[cy.job]
		switch {
		case cy.state != server.JobDone:
			o.mismatch("cycle %d: restored job ended %q", i, cy.state)
			bad[i] = true
		case cy.results != len(ref) || len(cy.digests) != len(ref):
			o.mismatch("cycle %d: %d results, want %d", i, cy.results, len(ref))
			bad[i] = true
		default:
			for k, d := range cy.digests {
				if d == (digest{}) || d != ref[k] {
					o.mismatch("cycle %d: run %d differs from straight-through sim.Run", i, k)
					bad[i] = true
					break
				}
			}
		}
	}
	return bad
}

// runJobsResume is the `jobs-resume` workload: a closed loop of one
// client through the job store and the checkpoint codecs.
func runJobsResume(rc runConfig) (*outcome, error) {
	o := newOutcome()
	j, err := timeSetup(o, func() (*jobsRig, error) { return setupJobs(rc.seed) }, (*jobsRig).close)
	if err != nil {
		return nil, err
	}
	defer j.close()

	rss := math.NaN()
	loop := func(t *tracer, window time.Duration, n0 int) ([]cycle, error) {
		var out []cycle
		start := time.Now()
		for n := n0; time.Since(start) < window; n++ {
			cy, err := j.runCycle(t, (n+int(rc.seed%jobTemplates))%jobTemplates, n)
			if err != nil {
				return nil, fmt.Errorf("cycle %d: %w", n, err)
			}
			out = append(out, cy)
			if n == rssCycles-1 {
				rss = peakRSSMB()
			}
		}
		return out, nil
	}
	var cycles, tcycles []cycle
	var tr *tracer
	if !rc.trace {
		if cycles, err = loop(nil, rc.seconds, 0); err != nil {
			return nil, err
		}
	} else {
		mem := startMem()
		if cycles, err = loop(nil, rc.seconds/2, 0); err != nil {
			return nil, err
		}
		mem.report(o)
		tr = newTracer()
		j.ep.set(tr.wrapHandler("server", "", j.srv))
		if tcycles, err = loop(tr, rc.seconds/2, len(cycles)); err != nil {
			return nil, err
		}
		j.ep.set(j.srv)
	}
	if math.IsNaN(rss) {
		rss = peakRSSMB()
	}
	all := append(append([]cycle(nil), cycles...), tcycles...)
	bad := checkCycles(o, tr, j.jobs, all)
	o.attempted = len(all)
	for _, b := range bad {
		if b {
			o.failed++
		}
	}
	var total, ckpt, rest sample
	for _, cy := range cycles {
		total = append(total, cy.total.Seconds())
		ckpt = append(ckpt, float64(cy.checkpoint)/1e6)
		rest = append(rest, float64(cy.restore)/1e6)
	}
	if rc.trace {
		var ttotal, resume, resumed, doc sample
		for _, cy := range tcycles {
			ttotal = append(ttotal, cy.total.Seconds())
			resume = append(resume, cy.resume.Seconds())
			resumed = append(resumed, float64(cy.resumed))
			doc = append(doc, float64(cy.docBytes)/1024)
		}
		o.metrics["jobs.resume_s"] = resume.median()
		o.metrics["jobs.resumed_runs"] = resumed.median()
		o.metrics["jobs.doc_kb"] = doc.median()
		o.metrics["trace.overhead_share"] = ttotal.median()/total.median() - 1
		o.say("cycle_s (untraced)", total.median(), "s")
		o.say("cycle_s (traced)", ttotal.median(), "s")
		simLayers(o, tr)
		spanLayers(o, tr.snapshotSpans())
		if err := tr.writeSpans(rc.spans); err != nil {
			return nil, err
		}
		return o, nil
	}
	tail, q := total.tail()
	runs := 0
	for _, cy := range cycles {
		runs += cy.results
	}
	o.metrics["p50_ms"] = total.median() * 1e3
	o.metrics["peak_rss_mb"] = rss
	o.say("cycle_s", total.median(), "s")
	o.say(fmt.Sprintf("cycle_s_p%g", q*100), tail, "s")
	o.say("cycles", float64(len(cycles)), "count")
	o.say("runs_per_s", float64(runs)/total.sum(), "1/s")
	o.say("checkpoint_ms", ckpt.median(), "ms")
	o.say("restore_ms", rest.median(), "ms")
	o.say("failed_frac", float64(o.failed)/float64(max(o.attempted, 1)), "ratio")
	o.say("peak_rss_mb", rss, "MB")
	return o, nil
}
