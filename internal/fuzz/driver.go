package fuzz

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dvsslack/internal/prng"
	"dvsslack/internal/scenario"
)

// Options configures a fuzzing campaign.
type Options struct {
	// N is the number of scenarios to generate and run.
	N int
	// Seed selects the campaign's scenario stream; scenario i is
	// derived from Hash3(Seed, i, 0), so a campaign is reproducible
	// from (Seed, N) alone.
	Seed uint64
	// OutDir, when non-empty, receives a shrunk YAML reproducer
	// document per failing scenario (created if missing).
	OutDir string
	// ShrinkBudget bounds the shrinker's candidate runs per failure;
	// <= 0 selects DefaultShrinkBudget.
	ShrinkBudget int
	// Log, when non-nil, receives one progress line per failure.
	Log io.Writer
}

// Failure records one failing scenario of a campaign.
type Failure struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	// Fingerprint is the original failure's "policy/invariant" set.
	Fingerprint []string `json:"fingerprint"`
	// ReproPath is the shrunk reproducer written to OutDir, if any.
	ReproPath string `json:"repro,omitempty"`
}

// Summary is a campaign's outcome.
type Summary struct {
	Scenarios int       `json:"scenarios"`
	Runs      int       `json:"runs"`
	Failures  []Failure `json:"failures,omitempty"`
}

// OK reports whether the campaign found nothing.
func (s *Summary) OK() bool { return len(s.Failures) == 0 }

// Fuzz runs a campaign: N generated documents, every applicable
// policy audited, failures shrunk and written as reproducer
// documents. The returned error covers harness problems (unwritable
// OutDir), not audit findings — check Summary.OK for those.
func Fuzz(opts Options) (*Summary, error) {
	if opts.OutDir != "" {
		if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
			return nil, err
		}
	}
	sum := &Summary{}
	for i := 0; i < opts.N; i++ {
		seed := prng.Hash3(opts.Seed, i, 0)
		doc := Generate(seed)
		v := execute(doc)
		sum.Scenarios++
		sum.Runs += len(doc.Policies)
		if v.Ok {
			continue
		}
		fail := Failure{Scenario: doc.Name, Seed: seed, Fingerprint: v.Fingerprint()}
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "FAIL %s: %v\n", doc.Name, fail.Fingerprint)
		}
		if opts.OutDir != "" {
			min := Shrink(doc, opts.ShrinkBudget)
			path, err := writeReproducer(opts.OutDir, min, seed, fail.Fingerprint)
			if err != nil {
				return nil, err
			}
			fail.ReproPath = path
			if opts.Log != nil {
				fmt.Fprintf(opts.Log, "  reproducer: %s (%d tasks, %d policies)\n",
					path, len(min.Tasks), len(min.Policies))
			}
		}
		sum.Failures = append(sum.Failures, fail)
	}
	return sum, nil
}

// writeReproducer records where a shrunk document came from in its
// description and writes it as dir/repro-<name>.yaml, returning the
// path.
func writeReproducer(dir string, min *scenario.Document, seed uint64, fingerprint []string) (string, error) {
	min.Description = fmt.Sprintf("shrunk reproducer from fuzz seed %#x; original fingerprint %v", seed, fingerprint)
	path := filepath.Join(dir, "repro-"+min.Name+".yaml")
	if err := os.WriteFile(path, scenario.MarshalYAML(min), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
