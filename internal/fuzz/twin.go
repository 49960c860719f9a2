package fuzz

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"dvsslack/internal/prng"
	"dvsslack/internal/rtm"
	"dvsslack/internal/scenario"
	"dvsslack/internal/sim"
)

// Twins runs doc under spec twice: as lowered (Document.Config), and
// as its twin — the same configuration with twin applied to the
// freshly built policy before the run.
func Twins(doc *scenario.Document, spec string, twin func(sim.Policy, *rtm.TaskSet)) (plain, twinned sim.Result, err error) {
	run := func(prep func(sim.Policy, *rtm.TaskSet)) (sim.Result, error) {
		cfg, err := doc.Config(spec)
		if err != nil {
			return sim.Result{}, err
		}
		if prep != nil {
			prep(cfg.Policy, cfg.TaskSet)
		}
		return sim.Run(cfg)
	}
	if plain, err = run(nil); err == nil {
		twinned, err = run(twin)
	}
	if err != nil {
		err = fmt.Errorf("%s/%s: %w", doc.Name, spec, err)
	}
	return plain, twinned, err
}

// TwinCorpus returns the documents a differential pass runs each
// policy pair over: every scenario document in dir (timelines,
// activity windows and shaped workloads included), then n generated
// documents, each also with release jitter on every task and with
// random task arrival/departure windows.
func TwinCorpus(dir string, n int) ([]*scenario.Document, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.yaml"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("fuzz: no scenario documents in %s", dir)
	}
	var docs []*scenario.Document
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		doc, errs := scenario.Parse(filepath.Base(path), data)
		if len(errs) > 0 {
			return nil, errs[0]
		}
		docs = append(docs, doc)
	}
	for seed := uint64(0); seed < uint64(n); seed++ {
		doc := Generate(seed)
		docs = append(docs, doc, withJitter(doc, seed), withWindows(doc, seed))
	}
	return docs, nil
}

// withJitter copies doc with release jitter of 5–40% of the period on
// every task.
func withJitter(doc *scenario.Document, seed uint64) *scenario.Document {
	src := prng.New(seed ^ 0x7177e4)
	out := *doc
	out.Name += "+jitter"
	out.Tasks = append([]scenario.TaskSpec(nil), doc.Tasks...)
	for i := range out.Tasks {
		out.Tasks[i].Jitter = src.Range(0.05, 0.4) * out.Tasks[i].Period
	}
	out.JitterSeed = src.Uint64()
	return &out
}

// withWindows copies doc with arrive/depart events that give about
// two thirds of its tasks one or two activity windows within the
// default horizon, so streams skip releases mid-run.
func withWindows(doc *scenario.Document, seed uint64) *scenario.Document {
	src := prng.New(seed * 0xa5a5)
	tasks := make([]rtm.Task, len(doc.Tasks))
	for i, t := range doc.Tasks {
		tasks[i] = rtm.Task{WCET: t.WCET, Period: t.Period, Deadline: t.Deadline}
	}
	horizon := sim.DefaultHorizon(rtm.NewTaskSet(doc.Name, tasks...))
	out := *doc
	out.Name += "+windows"
	out.Timeline = append([]scenario.Event(nil), doc.Timeline...)
	for _, t := range doc.Tasks {
		if src.Float64() < 0.3 {
			continue // always active
		}
		start := src.Range(0, horizon/2)
		end := start + src.Range(horizon/8, horizon/2)
		out.Timeline = append(out.Timeline,
			scenario.Event{Event: "arrive", Task: t.Name, At: start},
			scenario.Event{Event: "depart", Task: t.Name, At: end})
		if src.Float64() < 0.5 {
			s2 := end + src.Range(0, horizon/4)
			out.Timeline = append(out.Timeline,
				scenario.Event{Event: "arrive", Task: t.Name, At: s2},
				scenario.Event{Event: "depart", Task: t.Name, At: s2 + src.Range(horizon/8, horizon/3)})
		}
	}
	return &out
}

// ResultDiff names the first sim.Result field on which a and b differ,
// comparing every field with == except the slack analyzer's scan
// counters (the slack_* policy counters), which is all a policy and
// its full-rescan twin may differ in. It returns "" when they agree.
func ResultDiff(a, b sim.Result) string {
	strip := func(c map[string]float64) map[string]float64 {
		c = maps.Clone(c)
		maps.DeleteFunc(c, func(k string, _ float64) bool { return strings.HasPrefix(k, "slack_") })
		return c
	}
	a.PolicyCounters, b.PolicyCounters = strip(a.PolicyCounters), strip(b.PolicyCounters)
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := range va.NumField() {
		if fa, fb := va.Field(i).Interface(), vb.Field(i).Interface(); !reflect.DeepEqual(fa, fb) {
			return fmt.Sprintf("%s: %v vs %v", va.Type().Field(i).Name, fa, fb)
		}
	}
	return ""
}
