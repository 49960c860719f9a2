package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// MarshalYAML renders a document in the package's YAML subset —
// round-trippable through Parse. The fuzz harness writes its shrunk
// reproducers in this form.
func MarshalYAML(doc *Document) []byte {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }

	w("version: %d\n", doc.Version)
	w("name: %s\n", yamlScalar(doc.Name))
	if doc.Description != "" {
		w("description: %s\n", yamlScalar(doc.Description))
	}
	if doc.Horizon != 0 {
		w("horizon: %s\n", yamlNum(doc.Horizon))
	}
	if doc.JitterSeed != 0 {
		w("jitter_seed: %d\n", doc.JitterSeed)
	}
	w("policies: [%s]\n", yamlList(doc.Policies))

	w("tasks:\n")
	for _, t := range doc.Tasks {
		w("  - name: %s\n", yamlScalar(t.Name))
		w("    wcet: %s\n", yamlNum(t.WCET))
		w("    period: %s\n", yamlNum(t.Period))
		if t.Deadline != 0 {
			w("    deadline: %s\n", yamlNum(t.Deadline))
		}
		if t.Jitter != 0 {
			w("    jitter: %s\n", yamlNum(t.Jitter))
		}
	}

	p := doc.Processor
	var pl []string
	add := func(dst *[]string, cond bool, format string, args ...any) {
		if cond {
			*dst = append(*dst, fmt.Sprintf(format, args...))
		}
	}
	add(&pl, p.Preset != "", "preset: %s", yamlScalar(p.Preset))
	add(&pl, p.SMin != 0, "smin: %s", yamlNum(p.SMin))
	if len(p.Levels) > 0 {
		nums := make([]string, len(p.Levels))
		for i, v := range p.Levels {
			nums[i] = yamlNum(v)
		}
		pl = append(pl, "levels: ["+strings.Join(nums, ", ")+"]")
	}
	add(&pl, p.Model != "", "model: %s", yamlScalar(p.Model))
	add(&pl, p.AlphaVt != 0, "alpha_vt: %s", yamlNum(p.AlphaVt))
	add(&pl, p.AlphaIdx != 0, "alpha_idx: %s", yamlNum(p.AlphaIdx))
	add(&pl, p.TableName != "", "table_name: %s", yamlScalar(p.TableName))
	add(&pl, p.IdlePower != nil, "idle_power: %s", yamlNumPtr(p.IdlePower))
	add(&pl, p.SwitchTime != 0, "switch_time: %s", yamlNum(p.SwitchTime))
	add(&pl, p.SwitchEnergyCoeff != 0, "switch_energy_coeff: %s", yamlNum(p.SwitchEnergyCoeff))
	add(&pl, p.LeakagePower != 0, "leakage_power: %s", yamlNum(p.LeakagePower))
	add(&pl, p.SleepEnabled, "sleep_enabled: true")
	add(&pl, p.SleepPower != 0, "sleep_power: %s", yamlNum(p.SleepPower))
	add(&pl, p.WakeEnergy != 0, "wake_energy: %s", yamlNum(p.WakeEnergy))
	if len(pl) > 0 {
		w("processor:\n")
		for _, line := range pl {
			w("  %s\n", line)
		}
		if len(p.Table) > 0 {
			w("  table:\n")
			for _, lv := range p.Table {
				w("    - speed: %s\n", yamlNum(lv.Speed))
				w("      voltage: %s\n", yamlNum(lv.Voltage))
			}
		}
	}

	wl := doc.Workload
	var wls []string
	add(&wls, wl.Kind != "", "kind: %s", yamlScalar(wl.Kind))
	add(&wls, wl.Lo != 0, "lo: %s", yamlNum(wl.Lo))
	add(&wls, wl.Hi != 0, "hi: %s", yamlNum(wl.Hi))
	add(&wls, wl.Frac != 0, "frac: %s", yamlNum(wl.Frac))
	add(&wls, wl.Mean != 0, "mean: %s", yamlNum(wl.Mean))
	add(&wls, wl.StdDev != 0, "std_dev: %s", yamlNum(wl.StdDev))
	add(&wls, wl.LightFrac != 0, "light_frac: %s", yamlNum(wl.LightFrac))
	add(&wls, wl.HeavyFrac != 0, "heavy_frac: %s", yamlNum(wl.HeavyFrac))
	add(&wls, wl.PHeavy != 0, "p_heavy: %s", yamlNum(wl.PHeavy))
	add(&wls, wl.Amp != 0, "amp: %s", yamlNum(wl.Amp))
	add(&wls, wl.PeriodJobs != 0, "period_jobs: %s", yamlNum(wl.PeriodJobs))
	add(&wls, wl.Jitter != 0, "jitter: %s", yamlNum(wl.Jitter))
	add(&wls, wl.Seed != 0, "seed: %d", wl.Seed)
	if len(wls) > 0 {
		w("workload:\n")
		for _, line := range wls {
			w("  %s\n", line)
		}
	}

	if len(doc.Timeline) > 0 {
		w("timeline:\n")
		for _, ev := range doc.Timeline {
			var ls []string
			ls = append(ls, fmt.Sprintf("event: %s", yamlScalar(ev.Event)))
			add(&ls, ev.At != 0, "at: %s", yamlNum(ev.At))
			add(&ls, ev.Until != 0, "until: %s", yamlNum(ev.Until))
			add(&ls, ev.Task != "", "task: %s", yamlScalar(ev.Task))
			add(&ls, ev.Job != 0, "job: %d", ev.Job)
			add(&ls, ev.Frac != 0, "frac: %s", yamlNum(ev.Frac))
			add(&ls, ev.Seed != 0, "seed: %d", ev.Seed)
			add(&ls, ev.PDelay != 0, "p_delay: %s", yamlNum(ev.PDelay))
			add(&ls, ev.PError != 0, "p_error: %s", yamlNum(ev.PError))
			add(&ls, ev.PDrop != 0, "p_drop: %s", yamlNum(ev.PDrop))
			add(&ls, ev.PTruncate != 0, "p_truncate: %s", yamlNum(ev.PTruncate))
			add(&ls, ev.MaxAttempts != 0, "max_attempts: %d", ev.MaxAttempts)
			writeItem(&b, ls)
		}
	}

	w("assertions:\n")
	for _, a := range doc.Assertions {
		var ls []string
		ls = append(ls, fmt.Sprintf("kind: %s", yamlScalar(a.Kind)))
		add(&ls, a.Policy != "", "policy: %s", yamlScalar(a.Policy))
		add(&ls, a.Reference != "", "reference: %s", yamlScalar(a.Reference))
		add(&ls, a.Max != 0, "max: %s", yamlNum(a.Max))
		add(&ls, a.Count != 0, "count: %d", a.Count)
		if a.Expect != nil {
			ls = append(ls, "expect: ["+yamlList(a.Expect)+"]")
		}
		writeItem(&b, ls)
	}
	return []byte(b.String())
}

// writeItem emits one sequence item in compact `- key: value` form.
func writeItem(b *strings.Builder, lines []string) {
	for i, l := range lines {
		if i == 0 {
			fmt.Fprintf(b, "  - %s\n", l)
		} else {
			fmt.Fprintf(b, "    %s\n", l)
		}
	}
}

// yamlScalar quotes a string when the plain form would not reparse
// cleanly.
func yamlScalar(s string) string {
	if s == "" {
		return `""`
	}
	plain := !strings.ContainsAny(s, ":#'\"[]{},\n") &&
		!strings.HasPrefix(s, "-") && !strings.HasPrefix(s, " ") &&
		!strings.HasSuffix(s, " ")
	if plain {
		// Plain scalars that would reparse as numbers or booleans
		// must be quoted to stay strings.
		if _, err := strconv.ParseFloat(s, 64); err == nil || s == "true" || s == "false" {
			return strconv.Quote(s)
		}
		return s
	}
	return strconv.Quote(s)
}

func yamlList(items []string) string {
	quoted := make([]string, len(items))
	for i, s := range items {
		quoted[i] = yamlScalar(s)
	}
	return strings.Join(quoted, ", ")
}

// yamlNum renders a float in its shortest round-trip form.
func yamlNum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func yamlNumPtr(v *float64) string {
	if v == nil {
		return "0"
	}
	return yamlNum(*v)
}
