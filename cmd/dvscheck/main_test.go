package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvsslack/internal/scenario"
)

// corpusDir resolves the shipped corpus relative to this package's
// source directory (tests run with the package dir as cwd).
const corpusDir = "../../scenarios"

func TestCorpusMode(t *testing.T) {
	var out, errw bytes.Buffer
	err := run(options{Corpus: corpusDir, Verbose: true}, &out, &errw)
	if err != nil {
		t.Fatalf("corpus replay failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "documents passed") {
		t.Errorf("missing summary line in output:\n%s", out.String())
	}
}

func TestSelfTestMode(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(options{SelfTest: true}, &out, &errw); err != nil {
		t.Fatalf("self-test failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "mutations caught") {
		t.Errorf("missing self-test summary:\n%s", out.String())
	}
}

func TestFuzzMode(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(options{Fuzz: 5, Seed: 3}, &out, &errw); err != nil {
		t.Fatalf("fuzz campaign failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "5 scenarios") {
		t.Errorf("missing fuzz summary:\n%s", out.String())
	}
}

// TestReplayModeByteIdentical replays the same reproducer twice and
// requires byte-identical output that is exactly the document's
// canonical verdict — what `dvsscen run -json` prints for the file.
func TestReplayModeByteIdentical(t *testing.T) {
	path := filepath.Join(corpusDir, "repro-overload-min.yaml")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out1, out2, errw bytes.Buffer
	if err := run(options{Replay: path}, &out1, &errw); err != nil {
		t.Fatalf("replay failed: %v\n%s", err, out1.String())
	}
	if err := run(options{Replay: path}, &out2, &errw); err != nil {
		t.Fatalf("second replay failed: %v", err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Error("replay output differs byte-for-byte across two runs")
	}
	doc, errs := scenario.Parse(path, data)
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	v, err := scenario.Execute(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), v.JSON()) {
		t.Errorf("replay output is not the canonical verdict:\n%s", out1.String())
	}
	if !strings.Contains(out1.String(), "deadline-miss") {
		t.Errorf("reproducer verdict lacks its deadline-miss violations:\n%s", out1.String())
	}
}

// TestReplayMismatchExits checks a reproducer whose fingerprint no
// longer matches makes the run fail.
func TestReplayMismatchExits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stale.yaml")
	stale := `version: 1
name: clean
policies: [lpshe]
tasks:
  - name: T1
    wcet: 1
    period: 10
assertions:
  - kind: fingerprint
    expect: [lpshe/deadline-miss]
`
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if err := run(options{Replay: path}, &out, &errw); err == nil {
		t.Fatal("run accepted a reproducer whose fingerprint did not match")
	}
}
