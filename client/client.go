// Package client is the Go client for dvsd, the simulation daemon
// (internal/server, cmd/dvsd). It wraps the HTTP/JSON wire protocol
// — synchronous single runs, async batch jobs, metrics — behind typed
// calls, and is what cmd/dvsexp uses to farm experiment replications
// out to a daemon.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"dvsslack/internal/obs"
	"dvsslack/internal/server"
)

// DefaultCallTimeout bounds Metrics and MetricsProm calls made with a
// deadline-free context: a scrape against a wedged daemon returns an
// error instead of hanging forever. Override with WithCallTimeout.
const DefaultCallTimeout = 10 * time.Second

// Client talks to one dvsd instance. The zero value is not usable;
// construct with New. Client is safe for concurrent use.
type Client struct {
	base        string
	http        *http.Client
	retry       *retrier
	callTimeout time.Duration
	tracer      *obs.Tracer
}

// New returns a client for the daemon at addr (host:port or a full
// http:// URL).
func New(addr string) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	return &Client{base: base, http: &http.Client{}}
}

// WithHTTPClient replaces the underlying *http.Client (e.g. to set
// timeouts or transports) and returns the client for chaining.
func (c *Client) WithHTTPClient(h *http.Client) *Client {
	c.http = h
	return c
}

// WithRetry makes the client self-healing under the given policy:
// idempotent calls that fail with transport errors or retryable
// statuses (408/429/5xx) are re-attempted with jittered exponential
// backoff, honoring the server's Retry-After hints, metered by a
// retry budget and a circuit breaker. See RetryPolicy for which calls
// qualify. Returns the client for chaining.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	c.retry = newRetrier(p)
	return c
}

// WithCallTimeout replaces DefaultCallTimeout for Metrics and
// MetricsProm calls whose context carries no deadline. Returns the
// client for chaining.
func (c *Client) WithCallTimeout(d time.Duration) *Client {
	c.callTimeout = d
	return c
}

// WithTracer records a client span around every call into tr, making
// the client a trace originator: a call whose context carries no span
// context roots a fresh trace that the daemon (and a fleet
// coordinator in between) continues. Header propagation — Traceparent
// and X-Request-ID from the call's context — happens with or without
// a tracer; this only enables local span recording. Returns the
// client for chaining.
func (c *Client) WithTracer(tr *obs.Tracer) *Client {
	c.tracer = tr
	return c
}

// APIError is a non-2xx daemon response.
type APIError struct {
	StatusCode int
	Message    string
	// Errors lists every problem when the server reported more than
	// one (scenario validation responses); empty otherwise.
	Errors []string
	// RetryAfter is the server's Retry-After hint, zero when absent.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("dvsd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// readAPIError decodes a non-2xx response into an APIError, capturing
// the Retry-After hint on shed/draining responses.
func readAPIError(resp *http.Response) *APIError {
	var eb server.ErrorBody
	msg := resp.Status
	if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
		msg = eb.Error
	}
	e := &APIError{StatusCode: resp.StatusCode, Message: msg, Errors: eb.Errors}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// do round-trips one JSON request through the (possibly retrying)
// transport. A nil in sends no body; a nil out discards the response
// body; idem marks the call safe to replay.
func (c *Client) do(ctx context.Context, method, path string, in, out any, idem bool) error {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = b
	}
	return c.roundTrip(ctx, method, path, body, idem, func(resp *http.Response) error {
		if out == nil {
			io.Copy(io.Discard, resp.Body)
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
		}
		return nil
	})
}

// doOnce performs a single HTTP attempt. The caller's context
// deadline, when set, is propagated as X-Request-Deadline so the
// server can shed work it could never answer in time.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, receive func(*http.Response) error) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		if left := time.Until(dl).Round(time.Millisecond); left > 0 {
			req.Header.Set("X-Request-Deadline", left.String())
		}
	}
	injectTraceHeaders(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return readAPIError(resp)
	}
	if receive == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return receive(resp)
}

// injectTraceHeaders forwards the context's request ID and span
// context as X-Request-ID / Traceparent headers. Propagation is
// deliberately independent of whether any tracer records spans, so
// enabling or disabling recording cannot change request bytes.
func injectTraceHeaders(ctx context.Context, req *http.Request) {
	if id, ok := obs.RequestIDFromContext(ctx); ok && obs.ValidRequestID(id) {
		req.Header.Set("X-Request-ID", id)
	}
	if sc, ok := obs.SpanContextFromContext(ctx); ok {
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
}

// Healthy reports whether the daemon answers /healthz.
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil, true)
}

// Ready reports whether the daemon answers /readyz: healthy, not
// draining, and with admission headroom.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil, true)
}

// Simulate runs one simulation synchronously. The call is idempotent
// — the daemon memoizes results by request content — so it is retried
// under a retry policy.
func (c *Client) Simulate(ctx context.Context, req server.SimRequest) (server.SimResult, error) {
	var res server.SimResult
	err := c.do(ctx, http.MethodPost, "/v1/simulate", &req, &res, true)
	return res, err
}

// RunScenario executes a declarative scenario document (raw YAML or
// JSON bytes) via POST /v1/scenario and returns the verdict in its
// canonical byte form — identical to a local `dvsscen run -json` of
// the same document. Scenario execution is deterministic, so the
// call is idempotent and rides the client's retry and deadline
// plumbing like Simulate. Validation failures surface as an APIError
// carrying every problem the validator found.
func (c *Client) RunScenario(ctx context.Context, doc []byte) ([]byte, error) {
	var out []byte
	err := c.roundTrip(ctx, http.MethodPost, "/v1/scenario", doc, true, func(resp *http.Response) error {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		out = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CreateJob submits a batch and returns its initial status. Never
// retried (a replay would enqueue the batch twice); callers that need
// at-most-once semantics with retries should check Jobs for a
// matching name before re-submitting.
func (c *Client) CreateJob(ctx context.Context, batch server.BatchRequest) (server.JobInfo, error) {
	var info server.JobInfo
	err := c.do(ctx, http.MethodPost, "/v1/jobs", &batch, &info, false)
	return info, err
}

// Job fetches a job's status; withResults includes per-run outcomes.
func (c *Client) Job(ctx context.Context, id string, withResults bool) (server.JobInfo, error) {
	path := "/v1/jobs/" + url.PathEscape(id)
	if withResults {
		path += "?results=1"
	}
	var info server.JobInfo
	err := c.do(ctx, http.MethodGet, path, nil, &info, true)
	return info, err
}

// Jobs lists every job the daemon knows.
func (c *Client) Jobs(ctx context.Context) ([]server.JobInfo, error) {
	var out []server.JobInfo
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out, true)
	return out, err
}

// CancelJob aborts a job's remaining runs. Cancelling twice is a
// no-op server-side, so the call is retried under a retry policy.
func (c *Client) CancelJob(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, nil, true)
}

// CheckpointJob pauses a job and returns the portable checkpoint
// document: its runs and the outcomes recorded so far (in-flight runs
// stop and are discarded; a restore re-runs them). dvsd and a
// dvsfleet coordinator both serve it, and the document restores on
// either. Not retried — a replay against a job that settled meanwhile
// would still succeed, but pausing is a state change the caller
// should see fail loudly.
func (c *Client) CheckpointJob(ctx context.Context, id string) (server.JobCheckpoint, error) {
	var doc server.JobCheckpoint
	err := c.do(ctx, http.MethodPost, "/v1/jobs/"+url.PathEscape(id)+"/checkpoint", nil, &doc, false)
	return doc, err
}

// RestoreJob resumes a checkpoint document as a fresh job on the
// daemon or coordinator it calls, whichever service produced the
// document (finished runs are skipped, every other run executes from
// its request; a coordinator fans them out across its fleet). Never
// retried: a replay would enqueue the job twice.
func (c *Client) RestoreJob(ctx context.Context, doc server.JobCheckpoint) (server.JobInfo, error) {
	var info server.JobInfo
	err := c.do(ctx, http.MethodPost, "/v1/jobs/restore", &doc, &info, false)
	return info, err
}

// WaitJob polls until the job reaches a terminal state (or ctx
// expires) and returns its final status with results.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (server.JobInfo, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		info, err := c.Job(ctx, id, true)
		if err != nil {
			return info, err
		}
		switch info.State {
		case server.JobDone, server.JobFailed, server.JobCancelled, server.JobCheckpointed:
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, ctx.Err()
		case <-t.C:
		}
	}
}

// boundedCtx caps deadline-free scrape contexts with the call
// timeout; contexts that already carry a deadline pass through.
func (c *Client) boundedCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	d := c.callTimeout
	if d <= 0 {
		d = DefaultCallTimeout
	}
	return context.WithTimeout(ctx, d)
}

// Metrics fetches the daemon's metrics snapshot. Calls without a
// context deadline are bounded by the call timeout (DefaultCallTimeout
// unless WithCallTimeout).
func (c *Client) Metrics(ctx context.Context) (server.MetricsSnapshot, error) {
	ctx, cancel := c.boundedCtx(ctx)
	defer cancel()
	var m server.MetricsSnapshot
	err := c.do(ctx, http.MethodGet, "/metrics", nil, &m, true)
	return m, err
}

// MetricsProm fetches the daemon's Prometheus text exposition
// (/metrics.prom) and returns the raw body. Bounded like Metrics.
func (c *Client) MetricsProm(ctx context.Context) ([]byte, error) {
	return c.rawGet(ctx, "/metrics.prom")
}

// TraceDump fetches the daemon's span ring (GET /debug/trace) as raw
// JSON — an obs.TraceDump document. Bounded like Metrics. A daemon
// running without a span buffer answers 404, surfaced as *APIError.
func (c *Client) TraceDump(ctx context.Context) ([]byte, error) {
	return c.rawGet(ctx, "/debug/trace")
}

// rawGet fetches one endpoint's body verbatim under the call timeout.
func (c *Client) rawGet(ctx context.Context, path string) ([]byte, error) {
	ctx, cancel := c.boundedCtx(ctx)
	defer cancel()
	var out []byte
	err := c.roundTrip(ctx, http.MethodGet, path, nil, true, func(resp *http.Response) error {
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		out = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// errTruncatedStream marks an SSE stream that closed before its
// terminal "end" event (connection drop, chaos truncation).
var errTruncatedStream = errors.New("client: SSE stream ended before terminal event")

// stopStreamError wraps an error the caller's fn returned, so the
// reconnect loop can tell "caller said stop" from stream failures.
type stopStreamError struct{ err error }

func (e *stopStreamError) Error() string { return e.err.Error() }
func (e *stopStreamError) Unwrap() error { return e.err }

// StreamEvents subscribes to a job's SSE progress stream, invoking fn
// for every event until the terminal "end" event or ctx cancellation.
// fn returning a non-nil error stops the stream and is returned as-is.
//
// Under a retry policy the stream is self-healing: a connection that
// drops before the "end" event is re-established with backoff (budget
// rules apply; the circuit breaker does not gate long-lived streams).
// Every (re)connection first delivers a snapshot event carrying the
// job's cumulative progress, so fn may see the same totals twice but
// never misses the final state. Without a retry policy a stream that
// closes early returns nil, matching historical behaviour.
func (c *Client) StreamEvents(ctx context.Context, id string, fn func(server.JobEvent) error) error {
	rt := c.retry
	attempts := 1
	if rt != nil {
		attempts = rt.policy.MaxAttempts
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		err = c.streamOnce(ctx, id, fn)
		var stop *stopStreamError
		if errors.As(err, &stop) {
			return stop.err
		}
		if err == nil {
			return nil
		}
		if rt == nil {
			if errors.Is(err, errTruncatedStream) {
				return nil
			}
			return err
		}
		if !retryable(err) || attempt+1 >= attempts {
			return err
		}
		if !rt.spend() {
			return fmt.Errorf("client: retry budget exhausted: %w", err)
		}
		if serr := rt.sleep(ctx, rt.delay(attempt, retryAfterHint(err))); serr != nil {
			return serr
		}
	}
	return err
}

// streamOnce runs a single SSE connection to completion.
func (c *Client) streamOnce(ctx context.Context, id string, fn func(server.JobEvent) error) error {
	if rt := c.retry; rt != nil {
		rt.attempt()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return err
	}
	injectTraceHeaders(ctx, req)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return readAPIError(resp)
	}
	dec := newSSEDecoder(resp.Body)
	for {
		ev, err := dec.next()
		if err == io.EOF {
			return errTruncatedStream
		}
		if err != nil {
			return err
		}
		if err := fn(ev); err != nil {
			return &stopStreamError{err: err}
		}
		if ev.Type == "end" {
			return nil
		}
	}
}

// sseDecoder parses the minimal SSE dialect the daemon emits.
type sseDecoder struct {
	r *bufReader
}

func newSSEDecoder(r io.Reader) *sseDecoder { return &sseDecoder{r: newBufReader(r)} }

func (d *sseDecoder) next() (server.JobEvent, error) {
	for {
		line, err := d.r.line()
		if err != nil {
			return server.JobEvent{}, err
		}
		if strings.HasPrefix(line, "data: ") {
			var ev server.JobEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				return server.JobEvent{}, fmt.Errorf("client: bad SSE payload %q: %w", line, err)
			}
			return ev, nil
		}
	}
}

// bufReader is a minimal line reader without bufio's buffer-size
// pitfalls for long data lines.
type bufReader struct {
	r   io.Reader
	buf []byte
}

func newBufReader(r io.Reader) *bufReader { return &bufReader{r: r} }

func (b *bufReader) line() (string, error) {
	for {
		if i := bytes.IndexByte(b.buf, '\n'); i >= 0 {
			line := strings.TrimRight(string(b.buf[:i]), "\r")
			b.buf = b.buf[i+1:]
			return line, nil
		}
		chunk := make([]byte, 4096)
		n, err := b.r.Read(chunk)
		if n > 0 {
			b.buf = append(b.buf, chunk[:n]...)
			continue
		}
		if err != nil {
			if len(b.buf) > 0 {
				line := strings.TrimRight(string(b.buf), "\r")
				b.buf = nil
				return line, nil
			}
			return "", err
		}
	}
}
