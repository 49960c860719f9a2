// Package experiment implements the evaluation harness: the policy
// suite under comparison, identical-workload measurement points,
// parameter sweeps, and the table/figure reproductions indexed in
// DESIGN.md §3. Each experiment returns a Report of deterministic
// tables and ASCII charts; cmd/dvsexp prints them and bench_test.go
// regenerates them under `go test -bench`.
package experiment

import (
	"sort"

	"dvsslack/internal/core"
	"dvsslack/internal/cpu"
	"dvsslack/internal/dvs"
	"dvsslack/internal/par"
	"dvsslack/internal/report"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
	"dvsslack/internal/workload"
)

// PolicyFactory creates a fresh policy instance for one run.
type PolicyFactory func() sim.Policy

// Exec executes one configured simulation and returns its result. A
// nil Exec means in-process sim.Run; cmd/dvsexp -addr substitutes an
// executor that farms the run out to a dvsd daemon (falling back to
// sim.Run for configurations with no wire representation).
type Exec func(sim.Config) (sim.Result, error)

// Suite returns the ordered comparison suite of the evaluation: the
// non-DVS reference, the prior inter-task DVS-EDF algorithms, and the
// paper's lpSHE.
func Suite() []PolicyFactory {
	return []PolicyFactory{
		func() sim.Policy { return &dvs.NonDVS{} },
		func() sim.Policy { return &dvs.StaticEDF{} },
		func() sim.Policy { return &dvs.LppsEDF{} },
		func() sim.Policy { return &dvs.CCEDF{} },
		func() sim.Policy { return &dvs.LAEDF{} },
		func() sim.Policy { return &dvs.DRA{} },
		func() sim.Policy { return dvs.NewFeedbackEDF() },
		func() sim.Policy { return core.NewLpSHE() },
	}
}

// SuiteNames returns the policy names of Suite, in order.
func SuiteNames() []string {
	suite := Suite()
	names := make([]string, 0, len(suite))
	for _, f := range suite {
		names = append(names, f().Name())
	}
	return names
}

// Options controls experiment scale.
type Options struct {
	// Seeds is the number of random task sets per measurement point
	// (default 20; Quick reduces to 4).
	Seeds int
	// Seed0 offsets the pseudo-random streams.
	Seed0 uint64
	// Quick selects a reduced configuration for tests and benches.
	Quick bool
	// Exec, when non-nil, replaces in-process sim.Run for every
	// simulation cell run through runSeededPoints (e.g. remote
	// execution against a dvsd daemon). F9 and T5 call sim.Run
	// directly and never reach it.
	Exec Exec
	// Workers bounds how many simulation cells run concurrently
	// (default GOMAXPROCS; 1 forces the serial path). Reports are
	// byte-identical for every value — parallelism only reorders
	// wall-clock execution, never aggregation.
	Workers int
	// Progress, when non-nil, is invoked after each simulation cell
	// of a fan-out completes, with the cells finished so far and the
	// fan-out's total (counts reset per cell grid, i.e. per sweep
	// point). It may be called concurrently from worker goroutines
	// and must not block for long; cmd/dvsexp -progress plugs the
	// shared obs logger in here. Progress observes execution order
	// only — reports stay byte-identical with or without it.
	Progress func(done, total int)
}

// workers returns the effective worker-pool width.
func (o Options) workers() int { return par.Workers(o.Workers) }

// seeds returns the effective replication count.
func (o Options) seeds() int {
	if o.Seeds > 0 {
		return o.Seeds
	}
	if o.Quick {
		return 4
	}
	return 20
}

// Report is the output of one experiment: deterministic tables and
// charts plus a free-form summary map consumed by tests.
type Report struct {
	ID          string
	Title       string
	Description string
	Tables      []*report.Table
	Charts      []*report.Chart
	// Values holds machine-readable results keyed by
	// "series/xlabel" for assertions in tests and EXPERIMENTS.md
	// generation.
	Values map[string]float64
}

func newReport(id, title, description string) *Report {
	return &Report{ID: id, Title: title, Description: description, Values: map[string]float64{}}
}

func (r *Report) set(key string, v float64) { r.Values[key] = v }

// Point is one measurement configuration: every policy of the suite
// runs on the *identical* task set, workload trace, and processor.
type Point struct {
	TaskSet   *rtm.TaskSet
	Processor *cpu.Processor
	Workload  workload.Generator
	Horizon   float64 // zero = sim.DefaultHorizon
}

// PointResult carries the per-policy outcomes of one Point.
type PointResult struct {
	// Results maps policy name to its raw simulation result.
	Results map[string]sim.Result
	// Normalized maps policy name to energy normalized by the
	// non-DVS run on the identical workload.
	Normalized map[string]float64
	// Bound is the clairvoyant static lower bound, normalized.
	Bound float64
	// Misses is the total deadline misses across all policies.
	Misses int
}

// RunPoint executes the full suite (plus any extra factories) on one
// point.
func RunPoint(p Point, extra ...PolicyFactory) (PointResult, error) {
	factories := append(Suite(), extra...)
	return RunPointWith(p, factories)
}

// RunPointWith executes the given policy factories on one point. The
// first factory must produce the normalization reference; by
// convention it is NonDVS (callers composing custom suites must
// include it first for Normalized to be meaningful).
func RunPointWith(p Point, factories []PolicyFactory) (PointResult, error) {
	return RunPointExec(p, factories, nil)
}

// RunPointExec is RunPointWith with an explicit executor; a nil exec
// runs in-process. The point's policy runs execute serially — callers
// wanting parallelism go through an experiment (or runSeededPoints),
// which fans whole cell grids out instead of single points.
func RunPointExec(p Point, factories []PolicyFactory, exec Exec) (PointResult, error) {
	var out PointResult
	err := runSeededPoints(1, factories, Options{Exec: exec, Workers: 1},
		func(int) (Point, error) { return p, nil },
		func(_ int, pr PointResult) { out = pr })
	return out, err
}

// sample is the harness's mean accumulator.
type sample struct {
	sum float64
	n   int
}

func (s *sample) add(v float64) { s.sum += v; s.n++ }

func (s *sample) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// sweepPoint aggregates normalized energy across seeded replications
// of a synthetic configuration.
type sweepPoint struct {
	norm   map[string]*sample
	bound  *sample
	misses int
}

func newSweepPoint(names []string) *sweepPoint {
	sp := &sweepPoint{norm: map[string]*sample{}, bound: &sample{}}
	for _, n := range names {
		sp.norm[n] = &sample{}
	}
	return sp
}

// runSweepPoint measures one (n, u, gen, proc) configuration over
// opts.seeds() random task sets.
func runSweepPoint(n int, u float64, mkGen func(seed uint64) workload.Generator,
	proc *cpu.Processor, opts Options, factories []PolicyFactory) (*sweepPoint, error) {
	return runSweepPointDetail(n, u, mkGen, proc, opts, factories, nil)
}

// runSweepPointDetail is runSweepPoint with a per-replication hook
// that receives the raw per-policy results (for counter aggregation).
func runSweepPointDetail(n int, u float64, mkGen func(seed uint64) workload.Generator,
	proc *cpu.Processor, opts Options, factories []PolicyFactory,
	each func(map[string]sim.Result)) (*sweepPoint, error) {

	names := factoryNames(factories)
	sp := newSweepPoint(names)
	err := runSeededPoints(opts.seeds(), factories, opts,
		func(s int) (Point, error) {
			seed := opts.Seed0 + uint64(s)*0x9e37 + 17
			ts, err := rtm.Generate(rtm.DefaultGenConfig(n, u, seed))
			if err != nil {
				return Point{}, err
			}
			return Point{TaskSet: ts, Processor: proc, Workload: mkGen(seed)}, nil
		},
		func(_ int, pr PointResult) {
			for _, name := range names {
				sp.norm[name].add(pr.Normalized[name])
			}
			sp.bound.add(pr.Bound)
			sp.misses += pr.Misses
			if each != nil {
				each(pr.Results)
			}
		})
	if err != nil {
		return nil, err
	}
	return sp, nil
}

func factoryNames(factories []PolicyFactory) []string {
	names := make([]string, 0, len(factories))
	for _, f := range factories {
		names = append(names, f().Name())
	}
	return names
}

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
