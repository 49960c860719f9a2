// Package wire holds the run spec and the serializable building-block
// specs shared by every layer that describes simulations as data: the
// dvsd daemon's request schema (internal/server) and the declarative
// scenario documents (internal/scenario), which the fuzz harness
// generates. SimRequest.Lower is the one place a spec becomes a
// sim.Config.
//
// The specs live below internal/server so that packages the server
// itself builds on (notably internal/scenario, which the daemon
// executes behind /v1/scenario) can speak the same wire vocabulary
// without an import cycle. internal/server re-exports the types under
// their historical names (server.SimRequest, server.ProcessorSpec,
// server.WorkloadSpec) as aliases, so existing callers and the
// canonical ScenarioKey hash are unchanged.
package wire

import (
	"fmt"

	"dvsslack/internal/cpu"
	"dvsslack/internal/workload"
)

// ProcessorSpec is the wire form of a cpu.Processor.
//
// Either Preset names one of the cpu.Presets models ("continuous",
// "xscale", "crusoe", "sa1100", "uniform4", "uniform8"), or the spec
// is assembled from Levels/SMin and Model. Overhead and power knobs
// apply on top of either base.
type ProcessorSpec struct {
	Preset string    `json:"preset,omitempty"`
	SMin   float64   `json:"smin,omitempty"`
	Levels []float64 `json:"levels,omitempty"`

	// Model selects the power model: "" or "cubic", "alpha"
	// (AlphaVt/AlphaIdx, defaulting to the standard 0.3/1.5), or
	// "table" (Table required).
	Model    string      `json:"model,omitempty"`
	AlphaVt  float64     `json:"alpha_vt,omitempty"`
	AlphaIdx float64     `json:"alpha_idx,omitempty"`
	Table    []cpu.Level `json:"table,omitempty"`
	// TableName labels a table model in reports ("table" if empty).
	TableName string `json:"table_name,omitempty"`

	// IdlePower overrides the default awake-idle power when non-nil.
	IdlePower         *float64 `json:"idle_power,omitempty"`
	SwitchTime        float64  `json:"switch_time,omitempty"`
	SwitchEnergyCoeff float64  `json:"switch_energy_coeff,omitempty"`
	LeakagePower      float64  `json:"leakage_power,omitempty"`
	SleepEnabled      bool     `json:"sleep_enabled,omitempty"`
	SleepPower        float64  `json:"sleep_power,omitempty"`
	WakeEnergy        float64  `json:"wake_energy,omitempty"`
}

// Build constructs and validates the processor the spec describes.
func (s *ProcessorSpec) Build() (*cpu.Processor, error) {
	var p *cpu.Processor
	switch {
	case s.Preset != "":
		if len(s.Levels) > 0 || s.Model != "" {
			return nil, fmt.Errorf("wire: processor preset %q cannot be combined with levels/model", s.Preset)
		}
		p = cpu.Presets()[s.Preset]
		if p == nil {
			return nil, fmt.Errorf("wire: unknown processor preset %q", s.Preset)
		}
		if s.SMin != 0 {
			p.SMin = s.SMin
		}
	case len(s.Levels) > 0:
		var err error
		p, err = cpu.WithLevels(s.Levels...)
		if err != nil {
			return nil, err
		}
	default:
		smin := s.SMin
		if smin == 0 {
			smin = 0.1
		}
		p = cpu.Continuous(smin)
	}
	switch s.Model {
	case "", "cubic":
		// keep the base model
	case "alpha":
		m := cpu.DefaultAlphaModel()
		if s.AlphaVt != 0 {
			m.Vt = s.AlphaVt
		}
		if s.AlphaIdx != 0 {
			m.Alpha = s.AlphaIdx
		}
		p.Model = m
	case "table":
		name := s.TableName
		if name == "" {
			name = "table"
		}
		m, err := cpu.NewTableModel(name, s.Table)
		if err != nil {
			return nil, err
		}
		p.Model = m
	default:
		return nil, fmt.Errorf("wire: unknown power model %q", s.Model)
	}
	if s.IdlePower != nil {
		p.IdlePower = *s.IdlePower
	}
	p.SwitchTime = s.SwitchTime
	p.SwitchEnergyCoeff = s.SwitchEnergyCoeff
	p.LeakagePower = s.LeakagePower
	p.SleepEnabled = s.SleepEnabled
	p.SleepPower = s.SleepPower
	p.WakeEnergy = s.WakeEnergy
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// SpecFromProcessor inverts Build for the processor values the
// library constructs (cubic, alpha, and table power models). It is
// what lets the experiment harness ship its in-memory processor
// configurations to a remote daemon.
func SpecFromProcessor(p *cpu.Processor) (ProcessorSpec, error) {
	s := ProcessorSpec{
		SMin:              p.SMin,
		Levels:            p.Levels(),
		SwitchTime:        p.SwitchTime,
		SwitchEnergyCoeff: p.SwitchEnergyCoeff,
		LeakagePower:      p.LeakagePower,
		SleepEnabled:      p.SleepEnabled,
		SleepPower:        p.SleepPower,
		WakeEnergy:        p.WakeEnergy,
	}
	idle := p.IdlePower
	s.IdlePower = &idle
	switch m := p.Model.(type) {
	case nil, cpu.CubicModel:
		s.Model = "cubic"
	case cpu.AlphaModel:
		s.Model, s.AlphaVt, s.AlphaIdx = "alpha", m.Vt, m.Alpha
	case *cpu.TableModel:
		s.Model, s.Table, s.TableName = "table", m.Levels(), m.Name()
	default:
		return ProcessorSpec{}, fmt.Errorf("wire: power model %s has no wire form", p.Model.Name())
	}
	return s, nil
}

// WorkloadSpec is the wire form of a workload.Generator. Kind selects
// the generator; only the fields that generator uses are read.
type WorkloadSpec struct {
	// Kind: "" or "worst-case", "uniform", "constant", "normal",
	// "bimodal", "sinusoidal".
	Kind       string  `json:"kind,omitempty"`
	Lo         float64 `json:"lo,omitempty"`
	Hi         float64 `json:"hi,omitempty"`
	Frac       float64 `json:"frac,omitempty"`
	Mean       float64 `json:"mean,omitempty"`
	StdDev     float64 `json:"std_dev,omitempty"`
	LightFrac  float64 `json:"light_frac,omitempty"`
	HeavyFrac  float64 `json:"heavy_frac,omitempty"`
	PHeavy     float64 `json:"p_heavy,omitempty"`
	Amp        float64 `json:"amp,omitempty"`
	PeriodJobs float64 `json:"period_jobs,omitempty"`
	Jitter     float64 `json:"jitter,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
}

// Build constructs the generator the spec describes.
func (s *WorkloadSpec) Build() (workload.Generator, error) {
	switch s.Kind {
	case "", "worst-case":
		return workload.WorstCase{}, nil
	case "uniform":
		if s.Lo < 0 || s.Hi > 1 || s.Lo > s.Hi {
			return nil, fmt.Errorf("wire: uniform workload bounds [%v,%v] out of order or outside [0,1]", s.Lo, s.Hi)
		}
		return workload.Uniform{Lo: s.Lo, Hi: s.Hi, Seed: s.Seed}, nil
	case "constant":
		return workload.Constant{Frac: s.Frac}, nil
	case "normal":
		return workload.Normal{Mean: s.Mean, StdDev: s.StdDev, Seed: s.Seed}, nil
	case "bimodal":
		return workload.Bimodal{LightFrac: s.LightFrac, HeavyFrac: s.HeavyFrac, PHeavy: s.PHeavy, Seed: s.Seed}, nil
	case "sinusoidal":
		return workload.Sinusoidal{Mean: s.Mean, Amp: s.Amp, PeriodJobs: s.PeriodJobs, Jitter: s.Jitter, Seed: s.Seed}, nil
	default:
		return nil, fmt.Errorf("wire: unknown workload kind %q", s.Kind)
	}
}

// SpecFromGenerator inverts Build for the shipped generator types.
func SpecFromGenerator(g workload.Generator) (WorkloadSpec, error) {
	switch g := g.(type) {
	case nil, workload.WorstCase:
		return WorkloadSpec{Kind: "worst-case"}, nil
	case workload.Uniform:
		return WorkloadSpec{Kind: "uniform", Lo: g.Lo, Hi: g.Hi, Seed: g.Seed}, nil
	case workload.Constant:
		return WorkloadSpec{Kind: "constant", Frac: g.Frac}, nil
	case workload.Normal:
		return WorkloadSpec{Kind: "normal", Mean: g.Mean, StdDev: g.StdDev, Seed: g.Seed}, nil
	case workload.Bimodal:
		return WorkloadSpec{Kind: "bimodal", LightFrac: g.LightFrac, HeavyFrac: g.HeavyFrac, PHeavy: g.PHeavy, Seed: g.Seed}, nil
	case workload.Sinusoidal:
		return WorkloadSpec{Kind: "sinusoidal", Mean: g.Mean, Amp: g.Amp, PeriodJobs: g.PeriodJobs, Jitter: g.Jitter, Seed: g.Seed}, nil
	default:
		return WorkloadSpec{}, fmt.Errorf("wire: workload %s has no wire form", g.Name())
	}
}
