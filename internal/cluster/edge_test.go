package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dvsslack/client"
	"dvsslack/internal/server"
)

// postDeadline posts body to the coordinator path with an
// X-Request-Deadline header and returns the response with its body
// drained.
func postDeadline(t *testing.T, url, deadline string, body []byte) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Deadline", deadline)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, string(b)
}

// sumFailovers totals the coordinator's per-worker failover counter.
func sumFailovers(c *Coordinator) float64 {
	sum := 0.0
	for _, w := range c.workerList() {
		sum += c.met.failovers.With(w.addr).Value()
	}
	return sum
}

// TestFleetRequestDeadline pins that the coordinator honours
// X-Request-Deadline exactly like a dvsd: a malformed header is a 400,
// and a deadline shorter than the run answers 503 + Retry-After before
// the run ends, without failing over to (and re-running on) another
// worker.
func TestFleetRequestDeadline(t *testing.T) {
	f := newTestFleet(t, 2, Config{})
	url := f.hs.URL + "/v1/simulate"

	quick, err := json.Marshal(testRequest("lpshe", 1))
	if err != nil {
		t.Fatal(err)
	}
	if resp, body := postDeadline(t, url, "not-a-duration", quick); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline status = %d (%s), want 400", resp.StatusCode, body)
	}

	// About a second of simulation on one core.
	long := testRequest("lpshe", 2)
	long.Horizon = 3e6
	body, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	resp, msg := postDeadline(t, url, "50ms", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("short deadline status = %d (%s), want 503", resp.StatusCode, msg)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("deadline 503 is missing the Retry-After header")
	}
	// The answer came before the run finished: no worker has completed
	// a fresh simulation yet.
	for _, w := range f.workers {
		m, err := client.New(w.Addr()).Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if m.SimsRun != 0 {
			t.Fatalf("worker %s finished %d simulations before the deadline answer", w.Addr(), m.SimsRun)
		}
	}
	if n := sumFailovers(f.coord); n != 0 {
		t.Fatalf("deadline expiry counted %v failovers, want 0", n)
	}
}

// TestFleetWorkerDeadlineNoFailover pins the ladder's handling of a
// worker that itself answers the request's deadline 503: the
// coordinator relays it (with Retry-After) instead of re-running the
// request on the next worker.
func TestFleetWorkerDeadlineNoFailover(t *testing.T) {
	var calls atomic.Int32
	var addrs []string
	for i := 0; i < 2; i++ {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/readyz" {
				server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
				return
			}
			calls.Add(1)
			w.Header().Set("Retry-After", server.ShedRetryAfter)
			server.WriteError(w, http.StatusServiceUnavailable, "%v", server.ErrDeadlineExceeded)
		}))
		t.Cleanup(hs.Close)
		addrs = append(addrs, strings.TrimPrefix(hs.URL, "http://"))
	}
	coord := New(Config{Workers: addrs, HealthInterval: time.Hour})
	coord.Start()
	hs := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		hs.Close()
		coord.Shutdown(context.Background())
	})

	body, err := json.Marshal(testRequest("lpshe", 3))
	if err != nil {
		t.Fatal(err)
	}
	resp, msg := postDeadline(t, hs.URL+"/v1/simulate", "10s", body)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != server.ShedRetryAfter {
		t.Fatalf("status = %d, Retry-After %q (%s); want 503 with Retry-After %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), msg, server.ShedRetryAfter)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("deadline 503 reached %d workers, want 1", n)
	}
	if n := sumFailovers(coord); n != 0 {
		t.Fatalf("worker deadline counted %v failovers, want 0", n)
	}
}

// TestFleetBodyTooLarge pins the documented 413 for oversized bodies
// on every body-reading endpoint, as a single dvsd answers.
func TestFleetBodyTooLarge(t *testing.T) {
	f := newTestFleet(t, 1, Config{MaxBodyBytes: 256})
	body := []byte(`{"policy": "` + strings.Repeat("x", 1024) + `"}`)
	for _, path := range []string{"/v1/simulate", "/v1/jobs", "/v1/scenario"} {
		resp, err := http.Post(f.hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body status = %d, want 413", path, resp.StatusCode)
		}
	}
}
