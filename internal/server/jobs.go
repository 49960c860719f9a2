package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dvsslack/internal/obs"
	"dvsslack/internal/par"
)

// Job states.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
	// JobCheckpointed is the terminal state of a paused job: its
	// in-flight runs were stopped and discarded, and its checkpoint
	// document (runs plus recorded outcomes) can be restored here or
	// on another daemon, which re-runs every run without an outcome.
	JobCheckpointed = "checkpointed"
)

// JobEvent is one SSE progress record.
type JobEvent struct {
	Type   string `json:"type"` // "progress" or "end"
	State  string `json:"state"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
	// Index/Policy/Energy describe the run that just finished
	// (progress events only).
	Index  int     `json:"index,omitempty"`
	Policy string  `json:"policy,omitempty"`
	Energy float64 `json:"energy,omitempty"`
	Error  string  `json:"error,omitempty"`
}

// job is one async batch.
type job struct {
	id      string
	name    string
	created time.Time

	// cancel cancels the job's own context (DELETE, shutdown); pause
	// cancels only the run context derived from it (checkpoint). Either
	// way runs not yet started stay unstarted and in-flight runs stop
	// at their next step boundary, discarding their partial work.
	cancel, pause context.CancelFunc
	// onLost observes every event dropped on a full subscriber
	// buffer (the store wires it to its lost counter, when it has one).
	onLost func()

	mu       sync.Mutex
	state    string
	started  time.Time
	ended    time.Time
	runs     []SimRequest
	outcomes []RunOutcome
	done     int
	failed   int
	firstErr string
	subs     map[chan JobEvent]struct{}
	finished chan struct{}
	// completed marks run indices with a recorded outcome (restored
	// jobs are seeded with their checkpoint's outcomes and never
	// re-execute those indices).
	completed map[int]bool
}

func (j *job) info(withResults bool) JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:      j.id,
		Name:    j.name,
		State:   j.state,
		Total:   len(j.runs),
		Done:    j.done,
		Failed:  j.failed,
		Created: j.created.UTC().Format(time.RFC3339Nano),
		Error:   j.firstErr,
	}
	if !j.started.IsZero() {
		info.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.ended.IsZero() {
		info.Ended = j.ended.UTC().Format(time.RFC3339Nano)
	}
	if withResults {
		info.Results = append([]RunOutcome(nil), j.outcomes...)
	}
	return info
}

// subscribe registers an SSE listener and returns its channel plus an
// unsubscribe function. The returned snapshot event reflects the
// job's state at subscription time, so listeners can render progress
// immediately.
func (j *job) subscribe() (ch chan JobEvent, snapshot JobEvent, unsub func()) {
	ch = make(chan JobEvent, 64)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	snapshot = JobEvent{Type: "progress", State: j.state, Total: len(j.runs), Done: j.done, Failed: j.failed}
	j.mu.Unlock()
	return ch, snapshot, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// publish fans an event out to subscribers. The send is never
// blocking: a slow subscriber's full buffer drops the event (counted
// through onLost) instead of stalling the broadcaster — the terminal
// event is signalled by finished, which nobody can miss.
func (j *job) publish(ev JobEvent) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
			if j.onLost != nil {
				j.onLost()
			}
		}
	}
}

// recordRun stores one run outcome and notifies subscribers.
func (j *job) recordRun(index int, out outcome) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.completed[index] = true
	ro := RunOutcome{Index: index}
	if out.err != nil {
		ro.Error = out.err.Error()
		j.failed++
		if j.firstErr == "" {
			j.firstErr = out.err.Error()
		}
	} else {
		res := out.res
		ro.Result = &res
	}
	j.outcomes = append(j.outcomes, ro)
	j.done++
	ev := JobEvent{
		Type: "progress", State: j.state,
		Total: len(j.runs), Done: j.done, Failed: j.failed,
		Index: index,
	}
	if ro.Result != nil {
		ev.Policy, ev.Energy = ro.Result.Policy, ro.Result.Energy
	} else {
		ev.Error = ro.Error
	}
	j.publish(ev)
}

// finish moves the job to a terminal state.
func (j *job) finish(state string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCancelled || j.state == JobCheckpointed {
		return
	}
	j.state = state
	j.ended = time.Now()
	sort.Slice(j.outcomes, func(a, b int) bool { return j.outcomes[a].Index < j.outcomes[b].Index })
	j.publish(JobEvent{Type: "end", State: state, Total: len(j.runs), Done: j.done, Failed: j.failed,
		Error: j.firstErr})
	close(j.finished)
}

// settled waits until the job is terminal or ctx is done, and reports
// whether it is terminal. A job that already is counts as settled even
// under an expired ctx: a select over both ready channels would pick
// one at random.
func (j *job) settled(ctx context.Context) bool {
	select {
	case <-j.finished:
		return true
	default:
	}
	select {
	case <-j.finished:
		return true
	case <-ctx.Done():
		return false
	}
}

// checkpointDoc assembles the job's portable checkpoint document: its
// runs and the outcomes recorded so far. A restore re-runs every run
// without an outcome from its request.
func (j *job) checkpointDoc() *JobCheckpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &JobCheckpoint{
		Version:  JobCheckpointVersion,
		Name:     j.name,
		JobID:    j.id,
		Runs:     append([]SimRequest(nil), j.runs...),
		Outcomes: append([]RunOutcome(nil), j.outcomes...),
	}
}

// JobStore owns one service's batch jobs and their runner goroutines.
// dvsd and the dvsfleet coordinator each hold one; they differ only in
// what they hand it: how one run executes, how many runs a job keeps
// in flight, the job-ID prefix, and the counters it bumps. Outcomes
// are recorded under their submission index and sorted at finish, so
// a job's results do not depend on which runs finished first — nor,
// on the fleet, on which worker ran them.
type JobStore struct {
	run    func(context.Context, *SimRequest) (SimResult, error)
	width  func() int
	prefix string

	created, finished *obs.Counter
	lost              *obs.Counter // nil: dropped SSE events are not counted

	nextID atomic.Uint64

	mu   sync.Mutex
	jobs map[string]*job
	// order remembers creation order for listings.
	order []string
}

// NewJobStore builds a store whose jobs get the IDs prefix+"1",
// prefix+"2", …; each job keeps at most width() runs in flight and
// executes them through run. run must return once its context is
// done: that is how a pause or a cancel stops in-flight runs. The
// store bumps created when a job is accepted, finished when it is
// terminal, and lost (when non-nil) for every SSE event dropped on a
// full subscriber buffer.
func NewJobStore(prefix string, width func() int, run func(context.Context, *SimRequest) (SimResult, error), created, finished, lost *obs.Counter) *JobStore {
	return &JobStore{run: run, width: width, prefix: prefix,
		created: created, finished: finished, lost: lost, jobs: map[string]*job{}}
}

// newJob builds a queued job with a fresh ID.
func (s *JobStore) newJob(name string, runs []SimRequest) *job {
	j := &job{
		id:        fmt.Sprintf("%s%d", s.prefix, s.nextID.Add(1)),
		name:      name,
		created:   time.Now(),
		state:     JobQueued,
		runs:      runs,
		subs:      map[chan JobEvent]struct{}{},
		finished:  make(chan struct{}),
		completed: map[int]bool{},
	}
	if s.lost != nil {
		j.onLost = s.lost.Inc
	}
	return j
}

// start registers j and launches its runner under a child of parent.
func (s *JobStore) start(parent context.Context, j *job) *job {
	ctx, cancel := context.WithCancel(parent)
	runCtx, pause := context.WithCancel(ctx)
	j.cancel, j.pause = cancel, pause
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.created.Inc()
	go s.execute(ctx, runCtx, j)
	return j
}

// Create registers a job for the given runs and starts executing it.
func (s *JobStore) Create(parent context.Context, name string, runs []SimRequest) *job {
	return s.start(parent, s.newJob(name, runs))
}

// Restore registers and resumes a job from a checkpoint document.
// The new job gets a fresh ID, is seeded with the document's recorded
// outcomes, and re-enters the run loop: finished runs are skipped and
// every other run executes from its request.
func (s *JobStore) Restore(parent context.Context, doc *JobCheckpoint) (*job, error) {
	if err := doc.validate(); err != nil {
		return nil, err
	}
	j := s.newJob(doc.Name, append([]SimRequest(nil), doc.Runs...))
	for _, ro := range doc.Outcomes {
		j.outcomes = append(j.outcomes, ro)
		j.completed[ro.Index] = true
		j.done++
		if ro.Error != "" {
			j.failed++
			if j.firstErr == "" {
				j.firstErr = ro.Error
			}
		}
	}
	return s.start(parent, j), nil
}

// execute runs a job's runs under runCtx, keeping at most width()
// outstanding so one huge job cannot monopolize the executor against
// concurrent jobs and single-run requests.
func (s *JobStore) execute(ctx, runCtx context.Context, j *job) {
	j.mu.Lock()
	j.state = JobRunning
	j.started = time.Now()
	j.mu.Unlock()

	// Run failures are recorded per outcome and never surfaced as a
	// ForEach error, so cancellation (or a pause) is the only thing
	// that stops the sweep early.
	_ = par.ForEach(s.width(), len(j.runs), func(i int) error {
		if runCtx.Err() != nil {
			return nil // cancelled or pausing: unstarted runs stay unstarted
		}
		j.mu.Lock()
		recorded := j.completed[i]
		j.mu.Unlock()
		if recorded {
			return nil // restored job: this run's outcome is recorded
		}
		res, err := s.run(runCtx, &j.runs[i])
		if err != nil && runCtx.Err() != nil {
			return nil // stopped by the pause or cancel, not a run failure
		}
		j.recordRun(i, outcome{res: res, err: err})
		return nil
	})

	j.mu.Lock()
	done, failed := j.done, j.failed
	j.mu.Unlock()
	state := JobDone
	switch {
	case ctx.Err() != nil:
		state = JobCancelled
	case runCtx.Err() != nil && done < len(j.runs):
		state = JobCheckpointed
	case failed > 0:
		state = JobFailed
	}
	j.finish(state)
	j.pause() // release the run context
	s.finished.Inc()
}

// Get returns a job by ID.
func (s *JobStore) Get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns job summaries in creation order.
func (s *JobStore) List() []JobInfo {
	jobs := s.all()
	out := make([]JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.info(false)
	}
	return out
}

// all returns every job in creation order.
func (s *JobStore) all() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// Checkpoint pauses a job and returns its checkpoint document once
// its runner has settled (or ctx expires — the job keeps settling
// toward checkpointed in the background then, and a retry will find
// it settled). Checkpointing an already-terminal job just returns its
// document: for a finished job every run has its outcome, and a
// restore re-runs nothing.
func (s *JobStore) Checkpoint(ctx context.Context, id string) (*JobCheckpoint, error) {
	j, ok := s.Get(id)
	if !ok {
		return nil, errNoSuchJob
	}
	j.pause()
	if !j.settled(ctx) {
		return nil, ctx.Err()
	}
	return j.checkpointDoc(), nil
}

// CheckpointAll pauses every non-terminal job (the drain path of
// Shutdown) and returns the documents of those that settled into the
// checkpointed state within ctx. Jobs that complete normally while
// pausing need no document; jobs that fail to settle are left to the
// caller's cancellation pass.
func (s *JobStore) CheckpointAll(ctx context.Context) []*JobCheckpoint {
	var pending []*job
	for _, j := range s.all() {
		j.mu.Lock()
		terminal := j.state == JobDone || j.state == JobFailed ||
			j.state == JobCancelled || j.state == JobCheckpointed
		j.mu.Unlock()
		if terminal {
			continue
		}
		j.pause()
		pending = append(pending, j)
	}
	var docs []*JobCheckpoint
	for _, j := range pending {
		if !j.settled(ctx) {
			continue
		}
		j.mu.Lock()
		st := j.state
		j.mu.Unlock()
		if st == JobCheckpointed {
			docs = append(docs, j.checkpointDoc())
		}
	}
	return docs
}

// WaitIdle blocks until every current job has reached a terminal
// state or ctx expires (the graceful half of shutdown; handlers must
// already be rejecting new jobs).
func (s *JobStore) WaitIdle(ctx context.Context) error {
	for _, j := range s.all() {
		if !j.settled(ctx) {
			return ctx.Err()
		}
	}
	return nil
}

// CancelAll aborts every job (shutdown path) and waits for their
// runner goroutines to settle or ctx to expire.
func (s *JobStore) CancelAll(ctx context.Context) {
	jobs := s.all()
	for _, j := range jobs {
		j.cancel()
	}
	for _, j := range jobs {
		if !j.settled(ctx) {
			return
		}
	}
}

// --- SSE streaming ---

// sseSink is the response side of one SSE subscriber: a writer with
// per-write deadlines and flushing. The HTTP handler backs it with
// http.ResponseController; tests back it with fakes to exercise the
// slow-consumer path deterministically.
type sseSink interface {
	io.Writer
	// SetWriteDeadline arms a deadline for the next write; sinks that
	// cannot enforce deadlines return http.ErrNotSupported (treated
	// as best-effort, not fatal).
	SetWriteDeadline(t time.Time) error
	// Flush pushes buffered bytes to the consumer.
	Flush() error
}

// streamJob pumps j's progress events into sink until the terminal
// "end" event, ctx cancellation, or a failed/overdue write. Every
// write is armed with writeTimeout (when positive), so a consumer
// that stops reading is dropped — the returned error — instead of
// parking this goroutine on a dead TCP connection; the broadcaster
// itself is never in danger because publish is non-blocking.
func streamJob(ctx context.Context, sink sseSink, j *job, snapshot JobEvent, ch chan JobEvent, writeTimeout time.Duration) error {
	send := func(ev JobEvent) error {
		if writeTimeout > 0 {
			if err := sink.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil && !errors.Is(err, http.ErrNotSupported) {
				return err
			}
		}
		if err := writeSSE(sink, ev); err != nil {
			return err
		}
		return sink.Flush()
	}
	if err := send(snapshot); err != nil {
		return err
	}
	for {
		select {
		case ev := <-ch:
			if err := send(ev); err != nil {
				return err
			}
			if ev.Type == "end" {
				return nil
			}
		case <-j.finished:
			// Drain anything buffered, then emit the terminal event
			// (publish is lossy for slow readers; this path is not).
			for {
				select {
				case ev := <-ch:
					if ev.Type == "end" {
						return send(ev)
					}
					if err := send(ev); err != nil {
						return err
					}
				default:
					info := j.info(false)
					return send(JobEvent{Type: "end", State: info.State, Total: info.Total, Done: info.Done,
						Failed: info.Failed, Error: info.Error})
				}
			}
		case <-ctx.Done():
			return nil
		}
	}
}

func writeSSE(w io.Writer, ev JobEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	return err
}
