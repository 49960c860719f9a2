// Command dvsscen works with declarative scenario documents: versioned
// YAML/JSON descriptions of a task set, a processor, a workload
// timeline, and the assertions a run must satisfy.
//
// Usage:
//
//	dvsscen validate scenarios/*.yaml          # check documents, list every error
//	dvsscen run scenarios/surge-overrun.yaml   # execute locally, report the verdict
//	dvsscen run -json doc.yaml                 # canonical machine-readable verdict
//	dvsscen run -addr http://host:8080 doc.yaml  # execute on a dvsd or dvsfleet
//
// validate exits 2 on usage errors and 1 when any document fails,
// after printing every validation error (not just the first). run
// exits 1 when any verdict reports ok=false or a document fails to
// execute; with -json the verdict's canonical bytes go to stdout —
// byte-identical to what POST /v1/scenario answers for the same
// document, so the two can be compared with cmp.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dvsslack/client"
	"dvsslack/internal/obs"
	"dvsslack/internal/scenario"
	"dvsslack/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "validate":
		err = cmdValidate(os.Args[2:], os.Stdout, os.Stderr)
	case "run":
		err = cmdRun(os.Args[2:], os.Stdout, os.Stderr)
	case "help", "-h", "--help":
		usage(os.Stdout)
		return
	default:
		fmt.Fprintf(os.Stderr, "dvsscen: unknown subcommand %q\n\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		if _, harness := err.(failure); !harness {
			fmt.Fprintf(os.Stderr, "dvsscen: %v\n", err)
		}
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `dvsscen works with declarative scenario documents.

Subcommands:
  validate <files...>                 check documents, listing every error
  run [-json] [-addr URL] [-explain] <files...>
                                      execute documents and report verdicts

Run 'dvsscen <subcommand> -h' for flags.
`)
}

// failure marks check failures whose diagnostics are already printed;
// main maps them to exit 1 without the "dvsscen:" prefix.
type failure string

func (f failure) Error() string { return string(f) }

// cmdValidate parses every named document and prints every error each
// one carries, file:line-anchored. All files are checked even after
// the first failure.
func cmdValidate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	quiet := fs.Bool("q", false, "suppress per-file ok lines")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("validate: no documents named")
	}
	bad := 0
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		_, errs := scenario.Parse(path, data)
		if len(errs) > 0 {
			bad++
			for _, e := range errs {
				fmt.Fprintln(stderr, e.Error())
			}
			continue
		}
		if !*quiet {
			fmt.Fprintf(stdout, "%s: ok\n", path)
		}
	}
	if bad > 0 {
		return failure(fmt.Sprintf("%d of %d documents failed validation", bad, fs.NArg()))
	}
	return nil
}

// cmdRun executes documents — locally, or on a remote dvsd/dvsfleet
// when -addr is given (the remote path proves transport byte-identity:
// the bytes printed by -json are exactly the server's response body).
func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit each verdict's canonical JSON instead of text")
	addr := fs.String("addr", "", "execute on this dvsd/dvsfleet base URL instead of locally")
	explain := fs.Bool("explain", false,
		"print a per-policy decision-path summary (staircase / certificate / full-scan / adaptive-cap counts) after each local run")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("run: no documents named")
	}
	if *explain && *addr != "" {
		return fmt.Errorf("run: -explain reads local flight-recorder counters and cannot be combined with -addr")
	}
	var remote *client.Client
	if *addr != "" {
		remote = client.New(*addr)
	}
	failed := 0
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		doc, errs := scenario.Parse(path, data)
		if len(errs) > 0 {
			failed++
			for _, e := range errs {
				fmt.Fprintln(stderr, e.Error())
			}
			continue
		}
		var raw []byte
		if remote != nil {
			raw, err = remote.RunScenario(context.Background(), data)
			if err != nil {
				var ae *client.APIError
				if errors.As(err, &ae) && len(ae.Errors) > 0 {
					for _, msg := range ae.Errors {
						fmt.Fprintln(stderr, msg)
					}
					failed++
					continue
				}
				return fmt.Errorf("%s: %w", path, err)
			}
		} else {
			var (
				specs []string
				fobs  map[string]*obs.FlightObserver
				hook  scenario.ObserverHook
			)
			if *explain {
				fobs = map[string]*obs.FlightObserver{}
				hook = func(spec string, pol sim.Policy) sim.Observer {
					fo := obs.NewFlightObserver(pol)
					specs = append(specs, spec)
					fobs[spec] = fo
					return fo
				}
			}
			v, err := scenario.ExecuteObserved(context.Background(), doc, hook)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			raw = v.JSON()
			if *explain {
				// With -json the canonical verdict owns stdout; the
				// summary moves to stderr so the bytes stay comparable.
				out := stdout
				if *jsonOut {
					out = stderr
				}
				printExplain(out, path, specs, fobs)
			}
		}
		var v scenario.Verdict
		if err := json.Unmarshal(raw, &v); err != nil {
			return fmt.Errorf("%s: decoding verdict: %w", path, err)
		}
		if *jsonOut {
			stdout.Write(raw)
		} else {
			printVerdict(stdout, path, &v)
		}
		if !v.Ok {
			failed++
		}
	}
	if failed > 0 {
		return failure(fmt.Sprintf("%d of %d scenarios failed", failed, fs.NArg()))
	}
	return nil
}

// printExplain renders the per-policy decision-path summary gathered
// by -explain: how many dispatch decisions each policy resolved on
// each analysis path, and the slack credits it harvested. Policies
// that do not implement sim.DecisionExplainer still report their
// dispatch count.
func printExplain(w io.Writer, path string, specs []string, fobs map[string]*obs.FlightObserver) {
	fmt.Fprintf(w, "%s: decision paths\n", path)
	for _, spec := range specs {
		fo := fobs[spec]
		fmt.Fprintf(w, "  explain %-12s decisions=%d", spec, fo.Dispatches)
		if fo.Explains() {
			for p := sim.PathFullScan; p <= sim.PathAdaptiveCap; p++ {
				fmt.Fprintf(w, " %s=%d", p.String(), fo.PathCount(p))
			}
			fmt.Fprintf(w, " credits=%.3f", fo.Credits)
		} else {
			fmt.Fprintf(w, " (no decision provenance)")
		}
		fmt.Fprintln(w)
	}
}

// printVerdict renders the human-readable report for one verdict.
func printVerdict(w io.Writer, path string, v *scenario.Verdict) {
	status := "PASS"
	if !v.Ok {
		status = "FAIL"
	}
	fmt.Fprintf(w, "%s: %s (%s)\n", path, status, v.Scenario)
	for _, p := range v.Policies {
		if p.Err != "" {
			fmt.Fprintf(w, "  %-12s error: %s\n", p.Policy, p.Err)
			continue
		}
		fmt.Fprintf(w, "  %-12s energy=%.4f misses=%d jobs=%d/%d violations=%d\n",
			p.Policy, p.Energy, p.DeadlineMisses, p.JobsCompleted, p.JobsReleased, len(p.Violations))
	}
	for _, a := range v.Assertions {
		mark := "ok"
		if !a.Ok {
			mark = "FAIL"
		}
		name := a.Kind
		if a.Policy != "" {
			name += "(" + a.Policy
			if a.Reference != "" {
				name += "/" + a.Reference
			}
			name += ")"
		}
		fmt.Fprintf(w, "  assert %-28s %s", name, mark)
		if a.Detail != "" {
			fmt.Fprintf(w, "  %s", a.Detail)
		}
		fmt.Fprintln(w)
	}
	if v.Chaos != nil {
		fmt.Fprintf(w, "  chaos seed=%d faults=%v attempts=%v\n", v.Chaos.Seed, v.Chaos.Faults, v.Chaos.Attempts)
	}
}
