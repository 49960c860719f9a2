package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvsslack/internal/scenario"
	"dvsslack/internal/server"
)

const goodDoc = `version: 1
name: cli-smoke
policies: [lpshe, nondvs]
tasks:
  - name: A
    wcet: 1
    period: 5
  - name: B
    wcet: 2
    period: 10
workload:
  kind: constant
  frac: 0.6
assertions:
  - kind: no_deadline_misses
  - kind: audit_clean
`

const badDoc = `version: 9
name: bad doc
policies: [nope]
tasks:
  - name: A
    wcet: 0
    period: 5
assertions:
  - kind: bogus
`

func writeDoc(t *testing.T, name, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidateGoodAndBad(t *testing.T) {
	good := writeDoc(t, "good.yaml", goodDoc)
	var out, errOut bytes.Buffer
	if err := cmdValidate([]string{good}, &out, &errOut); err != nil {
		t.Fatalf("good doc failed: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("no ok line: %q", out.String())
	}

	bad := writeDoc(t, "bad.yaml", badDoc)
	out.Reset()
	errOut.Reset()
	err := cmdValidate([]string{bad, good}, &out, &errOut)
	if err == nil {
		t.Fatal("bad doc validated")
	}
	if _, isFailure := err.(failure); !isFailure {
		t.Fatalf("error %v is not a failure", err)
	}
	// Every error is listed, each anchored to the bad file.
	for _, want := range []string{"version must be 1", "nope", "WCET", "unknown assertion kind"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut.String())
		}
	}
	// The good file is still checked after the bad one fails.
	if !strings.Contains(out.String(), "good.yaml: ok") {
		t.Fatalf("good file skipped after failure:\n%s", out.String())
	}
}

func TestRunLocalJSON(t *testing.T) {
	p := writeDoc(t, "doc.yaml", goodDoc)
	var out, errOut bytes.Buffer
	if err := cmdRun([]string{"-json", p}, &out, &errOut); err != nil {
		t.Fatalf("run: %v\n%s", err, errOut.String())
	}
	doc, _ := scenario.Parse("t", []byte(goodDoc))
	v, err := scenario.Execute(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), v.JSON()) {
		t.Fatalf("-json output differs from canonical verdict bytes:\n%s\n---\n%s", out.Bytes(), v.JSON())
	}
}

func TestRunText(t *testing.T) {
	p := writeDoc(t, "doc.yaml", goodDoc)
	var out, errOut bytes.Buffer
	if err := cmdRun([]string{p}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"PASS", "lpshe", "nondvs", "assert"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFailingAssertionExitsNonzero(t *testing.T) {
	failing := strings.Replace(goodDoc, "kind: no_deadline_misses",
		"kind: energy_ratio_max\n    policy: lpshe\n    reference: nondvs\n    max: 0.0001", 1)
	p := writeDoc(t, "doc.yaml", failing)
	var out, errOut bytes.Buffer
	err := cmdRun([]string{p}, &out, &errOut)
	if err == nil {
		t.Fatal("failing assertion exited zero")
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("report does not say FAIL:\n%s", out.String())
	}
}

// TestRunRemote pins -addr byte-identity: the remote verdict printed
// by -json matches the local run exactly.
func TestRunRemote(t *testing.T) {
	s := server.New(server.Config{Workers: 2})
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Shutdown(context.Background())
	})
	p := writeDoc(t, "doc.yaml", goodDoc)
	var local, remote, errOut bytes.Buffer
	if err := cmdRun([]string{"-json", p}, &local, &errOut); err != nil {
		t.Fatal(err)
	}
	if err := cmdRun([]string{"-json", "-addr", hs.URL, p}, &remote, &errOut); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), remote.Bytes()) {
		t.Fatalf("remote verdict differs from local:\n%s\n---\n%s", remote.Bytes(), local.Bytes())
	}
}
