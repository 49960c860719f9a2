package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"dvsslack/client"
	"dvsslack/internal/scenario"
	"dvsslack/internal/server"
)

const fleetScenario = `version: 1
name: fleet-smoke
policies: [lpshe, nondvs]
tasks:
  - name: A
    wcet: 1
    period: 5
  - name: B
    wcet: 2
    period: 10
workload:
  kind: uniform
  lo: 0.4
  hi: 0.95
  seed: 23
assertions:
  - kind: no_deadline_misses
  - kind: audit_clean
  - kind: energy_ratio_max
    policy: lpshe
    reference: nondvs
    max: 0.99
`

func fleetLocalVerdict(t *testing.T, doc []byte) []byte {
	t.Helper()
	d, errs := scenario.Parse("test", doc)
	if len(errs) > 0 {
		t.Fatalf("parse: %v", errs)
	}
	v, err := scenario.Execute(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	return v.JSON()
}

// TestFleetScenarioByteIdentical pins the central transport contract
// of the scenario subsystem: a document run through a 3-worker fleet
// answers with exactly the bytes a local execution produces.
func TestFleetScenarioByteIdentical(t *testing.T) {
	f := newTestFleet(t, 3, Config{})
	want := fleetLocalVerdict(t, []byte(fleetScenario))

	got, err := f.c.RunScenario(context.Background(), []byte(fleetScenario))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet verdict differs from local execution:\n%s\n---\n%s", got, want)
	}

	// Repeat: same document, same key, same worker, same bytes.
	again, err := f.c.RunScenario(context.Background(), []byte(fleetScenario))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("repeat run through the fleet produced different bytes")
	}
}

// TestFleetScenarioFailover kills the document's owning worker and
// asserts the re-run fails over to a successor with identical bytes.
func TestFleetScenarioFailover(t *testing.T) {
	f := newTestFleet(t, 3, Config{})
	want := fleetLocalVerdict(t, []byte(fleetScenario))
	ctx := context.Background()

	if _, err := f.c.RunScenario(ctx, []byte(fleetScenario)); err != nil {
		t.Fatal(err)
	}
	// The owner is the first in-ring candidate for the document key.
	d, _ := scenario.Parse("test", []byte(fleetScenario))
	cands := f.coord.candidates(scenario.DocKey(d))
	if len(cands) < 2 {
		t.Fatalf("need >= 2 candidates, got %v", cands)
	}
	for _, w := range f.workers {
		if w.Addr() == cands[0] {
			w.Kill()
		}
	}
	got, err := f.c.RunScenario(ctx, []byte(fleetScenario))
	if err != nil {
		t.Fatalf("run after killing owner %s: %v", cands[0], err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("failover verdict differs from local execution:\n%s\n---\n%s", got, want)
	}
}

// TestFleetScenarioValidation pins that the coordinator validates
// locally and lists every error, wire-compatible with dvsd's 400.
func TestFleetScenarioValidation(t *testing.T) {
	f := newTestFleet(t, 1, Config{})
	bad := `version: 9
name: bad doc
policies: [nope]
tasks:
  - name: A
    wcet: 0
    period: 5
assertions:
  - kind: bogus
`
	_, err := f.c.RunScenario(context.Background(), []byte(bad))
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error = %v, want *APIError", err)
	}
	if ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", ae.StatusCode)
	}
	if len(ae.Errors) < 4 {
		t.Fatalf("Errors lists %d problems, want all (>= 4): %v", len(ae.Errors), ae.Errors)
	}

	// The same document must draw the same error list straight from a
	// dvsd worker, so clients cannot tell coordinator from daemon.
	resp, err := http.Post("http://"+f.workers[0].Addr()+"/v1/scenario", "application/yaml", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb server.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if strings.Join(eb.Errors, "\n") != strings.Join(ae.Errors, "\n") {
		t.Fatalf("worker errors %v != coordinator errors %v", eb.Errors, ae.Errors)
	}
}

// TestFleetScenarioNoWorkers pins the 503 when the whole fleet is
// down.
func TestFleetScenarioNoWorkers(t *testing.T) {
	f := newTestFleet(t, 1, Config{})
	f.workers[0].Kill()
	// Two failed probes cross failThreshold and empty the
	// ring, so the coordinator answers ErrNoWorkers rather than
	// exhausting the failover ladder.
	f.coord.probeAll()
	f.coord.probeAll()
	resp, err := http.Post(f.hs.URL+"/v1/scenario", "application/yaml", strings.NewReader(fleetScenario))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}
