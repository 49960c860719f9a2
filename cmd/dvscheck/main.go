// Command dvscheck audits the simulator: it replays the scenario
// corpus, fuzzes freshly generated scenario documents under the
// internal/audit oracle, replays single documents, and runs the
// auditor's mutation self-test.
//
// Usage:
//
//	dvscheck -corpus scenarios                        # replay the corpus
//	dvscheck -fuzz 200 -seed 1                        # fuzz 200 documents
//	dvscheck -fuzz 200 -out /tmp/repro                # + write reproducers
//	dvscheck -replay scenarios/repro-overload-min.yaml  # print one verdict
//	dvscheck -selftest                                # prove the oracle can fail
//
// Modes compose: flags given together run in the order selftest,
// corpus, replay, fuzz. With no mode flags, dvscheck runs the
// default corpus (scenarios, resolved against the working directory)
// plus the self-test.
//
// The corpus and reproducers are scenario documents (see
// docs/scenarios.md); a shrunk reproducer pins its failure with a
// fingerprint assertion. -replay prints the document's canonical
// verdict, byte-identical to `dvsscen run -json` of the same file.
//
// Exit status is 0 only when every requested check passes: every
// corpus document passes its assertions, fuzzing finds no violations,
// and every self-test mutation is caught.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"dvsslack/internal/audit"
	"dvsslack/internal/fuzz"
	"dvsslack/internal/obs"
	"dvsslack/internal/scenario"
)

// DefaultCorpus is the shipped corpus path, relative to the repo
// root.
const DefaultCorpus = "scenarios"

// options collects the parsed command line; run consumes it.
type options struct {
	Corpus   string
	Fuzz     int
	Seed     uint64
	Out      string
	Replay   string
	SelfTest bool
	JSON     bool
	Verbose  bool

	// Log receives phase-level diagnostics (nil = discard); main wires
	// the shared obs logger configured by -log-level/-log-format.
	Log *slog.Logger
}

func main() {
	var o options
	flag.StringVar(&o.Corpus, "corpus", "", "replay every *.yaml scenario document in this directory")
	flag.IntVar(&o.Fuzz, "fuzz", 0, "fuzz this many generated scenario documents")
	flag.Uint64Var(&o.Seed, "seed", 1, "fuzzing campaign seed")
	flag.StringVar(&o.Out, "out", "", "directory for shrunk reproducer documents of fuzz failures")
	flag.StringVar(&o.Replay, "replay", "", "replay one scenario document and print its verdict")
	flag.BoolVar(&o.SelfTest, "selftest", false, "run the auditor's mutation self-test")
	flag.BoolVar(&o.JSON, "json", false, "emit machine-readable JSON instead of text")
	flag.BoolVar(&o.Verbose, "v", false, "report every scenario, not just failures")
	var logCfg obs.LogConfig
	logCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	logger, err := logCfg.New(os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvscheck: %v\n", err)
		os.Exit(2)
	}
	o.Log = logger

	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "dvscheck: %v\n", err)
		os.Exit(1)
	}
}

// failure marks check failures (as opposed to harness errors); main
// maps both to exit 1 but harness errors get the "dvscheck:" prefix.
type failure string

func (f failure) Error() string { return string(f) }

func run(o options, stdout, stderr io.Writer) error {
	if o.Log == nil {
		o.Log = obs.Discard()
	}
	defaulted := o.Corpus == "" && o.Fuzz == 0 && o.Replay == "" && !o.SelfTest
	if defaulted {
		o.Corpus = DefaultCorpus
		o.SelfTest = true
	}
	failures := 0

	if o.SelfTest {
		n, err := runSelfTest(o, stdout)
		if err != nil {
			return err
		}
		o.Log.Debug("selftest done", "failures", n)
		failures += n
	}
	if o.Corpus != "" {
		n, err := runCorpus(o, stdout)
		if err != nil {
			return err
		}
		o.Log.Debug("corpus done", "dir", o.Corpus, "failures", n)
		failures += n
	}
	if o.Replay != "" {
		n, err := runReplay(o, stdout)
		if err != nil {
			return err
		}
		o.Log.Debug("replay done", "file", o.Replay, "failures", n)
		failures += n
	}
	if o.Fuzz > 0 {
		n, err := runFuzz(o, stdout, stderr)
		if err != nil {
			return err
		}
		o.Log.Debug("fuzz done", "n", o.Fuzz, "seed", o.Seed, "failures", n)
		failures += n
	}
	if failures > 0 {
		return failure(fmt.Sprintf("%d check(s) failed", failures))
	}
	return nil
}

func runSelfTest(o options, w io.Writer) (failures int, err error) {
	results, err := audit.SelfTest()
	if err != nil {
		return 0, err
	}
	if o.JSON {
		if err := writeJSON(w, results); err != nil {
			return 0, err
		}
	}
	for _, r := range results {
		if !r.Caught {
			failures++
			if !o.JSON {
				fmt.Fprintf(w, "selftest FAIL %-16s expected one of %v, got %v\n",
					r.Mutation, r.Expected, r.Got)
			}
			continue
		}
		if !o.JSON && o.Verbose {
			fmt.Fprintf(w, "selftest ok   %-16s caught by %v\n", r.Mutation, r.Got)
		}
	}
	if !o.JSON {
		fmt.Fprintf(w, "selftest: %d/%d mutations caught\n", len(results)-failures, len(results))
	}
	return failures, nil
}

func runCorpus(o options, w io.Writer) (failures int, err error) {
	paths, err := filepath.Glob(filepath.Join(o.Corpus, "*.yaml"))
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("corpus %s has no *.yaml scenario documents", o.Corpus)
	}
	for _, path := range paths {
		v, err := replay(path)
		if err != nil {
			return 0, err
		}
		if !v.Ok {
			failures++
			fmt.Fprintf(w, "corpus FAIL %s: %s\n", path, failedAssertions(v))
			continue
		}
		if o.Verbose {
			fmt.Fprintf(w, "corpus ok   %s (fingerprint %v)\n", path, v.Fingerprint())
		}
	}
	fmt.Fprintf(w, "corpus: %d/%d documents passed\n", len(paths)-failures, len(paths))
	return failures, nil
}

func runReplay(o options, w io.Writer) (failures int, err error) {
	v, err := replay(o.Replay)
	if err != nil {
		return 0, err
	}
	if _, err := w.Write(v.JSON()); err != nil {
		return 0, err
	}
	if !v.Ok {
		fmt.Fprintf(w, "replay FAIL %s: %s\n", o.Replay, failedAssertions(v))
		return 1, nil
	}
	return 0, nil
}

// replay parses and executes one scenario document. A document that
// does not validate is a harness error listing every problem.
func replay(path string) (*scenario.Verdict, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, errs := scenario.Parse(path, data)
	if len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return nil, fmt.Errorf("invalid scenario document:\n%s", strings.Join(msgs, "\n"))
	}
	return scenario.Execute(context.Background(), doc)
}

// failedAssertions summarizes why a verdict is not ok.
func failedAssertions(v *scenario.Verdict) string {
	var parts []string
	for _, a := range v.Assertions {
		if !a.Ok {
			parts = append(parts, a.Kind+": "+a.Detail)
		}
	}
	return strings.Join(parts, "; ")
}

func runFuzz(o options, stdout, stderr io.Writer) (failures int, err error) {
	opts := fuzz.Options{N: o.Fuzz, Seed: o.Seed, OutDir: o.Out, Log: stderr}
	sum, err := fuzz.Fuzz(opts)
	if err != nil {
		return 0, err
	}
	if o.JSON {
		if err := writeJSON(stdout, sum); err != nil {
			return 0, err
		}
	} else {
		fmt.Fprintf(stdout, "fuzz: %d scenarios, %d audited runs, %d failure(s) (seed %d)\n",
			sum.Scenarios, sum.Runs, len(sum.Failures), o.Seed)
		for _, f := range sum.Failures {
			fmt.Fprintf(stdout, "fuzz FAIL %s (seed %#x): %v\n", f.Scenario, f.Seed, f.Fingerprint)
			if f.ReproPath != "" {
				fmt.Fprintf(stdout, "  reproducer: %s\n", f.ReproPath)
			}
		}
	}
	return len(sum.Failures), nil
}

func writeJSON(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
