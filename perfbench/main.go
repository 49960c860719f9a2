// Command perfbench is the repository's benchmark. It drives the
// system only through its public entry points — experiment.Run with
// Options.Exec, server.New(...).ServeHTTP behind a loopback listener,
// cluster.New(...) over in-process dvsd workers, and client.Client —
// and checks every output against an in-process reference.
//
//	perfbench --workload grid --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced, prints the per-layer
// metrics plus the tracing overhead, and writes the request spans to
// .bench_build/spans/. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for the workloads and metric definitions.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the metrics every untraced run reports, with units.
// Each workload maps them onto its own unit of work (README.md). Tail
// latencies and throughputs are printed in the report lines only: on
// the shared two-vCPU VM the benchmark was defined on they swing by a
// fifth or more between identical runs.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"p50_ms", "ms"},
}

// perLayer lists the metrics every traced run reports, with units. A
// layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"experiment.cells", "count"},
	{"experiment.cell_ms_p50", "ms"},
	{"experiment.cell_ms_p99", "ms"},
	{"experiment.busy_share", "ratio"},
	{"sim.runs", "count"},
	{"sim.decisions", "count"},
	{"sim.engine_self_s", "s"},
	{"sim.ns_per_decision", "ns"},
	{"core.select_s", "s"},
	{"core.ns_per_decision", "ns"},
	{"core.fast_path_share", "ratio"},
	{"core.slack_calls", "count"},
	{"core.avg_scan_len", "count"},
	{"dvs.nondvs.select_s", "s"},
	{"dvs.static.select_s", "s"},
	{"dvs.lpps.select_s", "s"},
	{"dvs.cc.select_s", "s"},
	{"dvs.la.select_s", "s"},
	{"dvs.dra.select_s", "s"},
	{"dvs.feedback.select_s", "s"},
	{"server.simulate.handler_ms_p50", "ms"},
	{"server.simulate.handler_ms_p99", "ms"},
	{"server.scenario.handler_ms_p50", "ms"},
	{"server.scenario.handler_ms_p99", "ms"},
	{"server.jobs.create.handler_ms_p50", "ms"},
	{"server.jobs.checkpoint.handler_ms_p50", "ms"},
	{"server.jobs.restore.handler_ms_p50", "ms"},
	{"server.overhead_ms_p50", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.sims_run", "count"},
	{"server.shed", "count"},
	{"cluster.handler_ms_p50", "ms"},
	{"cluster.handler_ms_p99", "ms"},
	{"cluster.hop_ms_p50", "ms"},
	{"cluster.failovers", "count"},
	{"cluster.route_balance", "ratio"},
	{"client.overhead_ms_p50", "ms"},
	{"jobs.resume_s", "s"},
	{"jobs.resumed_runs", "count"},
	{"jobs.doc_kb", "KiB"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.lag_ms_p99", "ms"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_share", "ratio"},
	{"trace.spans", "count"},
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	spans   string // where the traced run writes its spans (JSON lines)
}

// outcome is what a workload reports.
type outcome struct {
	attempted int
	failed    int
	// mismatches lists every correctness-check failure; any entry
	// makes the run incorrect.
	mismatches []string
	metrics    map[string]float64
	// report holds the workload's own figures, printed by name and
	// unit before the result line.
	report []reportLine
}

type reportLine struct {
	name  string
	value float64
	unit  string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

func (o *outcome) say(name string, value float64, unit string) {
	o.report = append(o.report, reportLine{name, value, unit})
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*outcome, error){
	"grid":        runGrid,
	"serve-fresh": runServeFresh,
	"fleet-hot":   runFleetHot,
	"jobs-resume": runJobsResume,
}

// setupReps is how many times each workload performs its set-up; the
// median is reported, so one slow set-up does not move setup_s.
const setupReps = 7

func main() {
	var (
		name    = flag.String("workload", "", "workload: grid, serve-fresh, fleet-hot or jobs-resume")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (grid, serve-fresh, fleet-hot, jobs-resume), --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	rc := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		spans:   filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed)),
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("# env nproc=%d gomaxprocs=%d go=%s os=%s/%s source=%s\n", runtime.NumCPU(),
		runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, sourceDigest("."))
	o, err := run(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	os.Exit(emit(os.Stdout, o, rc.trace))
}

// emit prints the report and the result line and returns the exit
// code: 0 only when every correctness check passed.
func emit(w io.Writer, o *outcome, traced bool) int {
	for _, l := range o.report {
		fmt.Fprintf(w, "%-34s %14.6g %s\n", l.name, l.value, l.unit)
	}
	for _, m := range o.mismatches {
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH %s\n", m)
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	out := map[string]metric{}
	for _, m := range list {
		v := o.metrics[m.name]
		// An empty sample (a layer the workload does not exercise) reads
		// NaN; JSON has no NaN, and the layer did no work.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.mismatches) == 0, o.attempted, o.failed, out}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	if len(o.mismatches) > 0 || o.attempted < 1 {
		return 1
	}
	return 0
}

// sourceDigest identifies the code under test: a SHA-256 over the
// module's Go sources and go.mod files (the checkout is not a git
// repository, so there is no commit to quote).
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// resetPeakRSS restarts the resident-set high-water mark at the current
// RSS, so that peakRSSMB reads the peak since this call. Where the
// kernel does not allow it, peakRSSMB keeps reading the process's peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// memDelta measures the Go runtime's allocation and GC activity over
// a window.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

func (m *memDelta) report(o *outcome) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	o.metrics["runtime.alloc_mb"] = float64(after.TotalAlloc-m.before.TotalAlloc) / (1 << 20)
	o.metrics["runtime.gc_cycles"] = float64(after.NumGC - m.before.NumGC)
	o.metrics["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
}

// timeSetup performs a workload's set-up setupReps times, tearing down
// all but the last, and records the median as setup_s.
func timeSetup[T any](o *outcome, setup func() (T, error), teardown func(T)) (T, error) {
	var (
		last  T
		times sample
	)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(last)
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	o.metrics["setup_s"] = times.median()
	o.say("setup_s", times.median(), "s")
	return last, nil
}
