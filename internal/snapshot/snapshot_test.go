package snapshot_test

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dvsslack/internal/audit"
	"dvsslack/internal/cpu"
	"dvsslack/internal/policies"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
	"dvsslack/internal/snapshot"
	"dvsslack/internal/workload"
)

// mkCfg builds a fresh audited config for one run. Every call returns
// new policy/auditor instances so straight-through and restored runs
// never share mutable state.
func mkCfg(t *testing.T, ts *rtm.TaskSet, spec string, proc *cpu.Processor, jitterSeed uint64) (sim.Config, *audit.Auditor) {
	t.Helper()
	var pol sim.Policy = bareNonDVS{}
	if spec != bareSpec {
		var err error
		if pol, err = policies.New(spec); err != nil {
			t.Fatal(err)
		}
	}
	aud := audit.New(audit.Options{TaskSet: ts, Processor: proc})
	return sim.Config{
		TaskSet:    ts,
		Processor:  proc,
		Policy:     pol,
		Workload:   workload.Uniform{Lo: 0.25, Hi: 1, Seed: 7},
		Observer:   aud,
		JitterSeed: jitterSeed,
	}, aud
}

// runSteps steps the engine exactly n times (or until it ends) and
// reports how many steps actually ran.
func runSteps(e *sim.Engine, n int) int {
	for i := 0; i < n; i++ {
		if !e.Step() {
			return i
		}
	}
	return n
}

func finishRun(t *testing.T, e *sim.Engine, aud *audit.Auditor) (sim.Result, *audit.Report) {
	t.Helper()
	for e.Step() {
	}
	res, err := e.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return res, aud.Finish(res)
}

// checkRoundTrip runs a scenario straight through, then re-runs it
// with a checkpoint/restore at step stopAt, and requires bit-identical
// results and audit reports. The restore crosses engine instances,
// policy instances, and auditor instances — everything a process
// restart would rebuild.
func checkRoundTrip(t *testing.T, ts *rtm.TaskSet, spec string, proc *cpu.Processor, jitterSeed uint64, stopAt int) {
	t.Helper()
	key := "scenario-key-" + spec

	cfg0, aud0 := mkCfg(t, ts, spec, proc, jitterSeed)
	e0, err := sim.NewEngine(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	want, wantRep := finishRun(t, e0, aud0)

	cfg1, aud1 := mkCfg(t, ts, spec, proc, jitterSeed)
	e1, err := sim.NewEngine(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	runSteps(e1, stopAt)
	data, err := snapshot.Capture(key, e1, aud1)
	if err != nil {
		t.Fatalf("capture at step %d: %v", stopAt, err)
	}

	cfg2, aud2 := mkCfg(t, ts, spec, proc, jitterSeed)
	e2, err := snapshot.Restore(data, key, cfg2, aud2)
	if err != nil {
		t.Fatalf("restore at step %d: %v", stopAt, err)
	}
	got, gotRep := finishRun(t, e2, aud2)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("step %d: restored result differs:\n got  %+v\n want %+v", stopAt, got, want)
	}
	if !reflect.DeepEqual(gotRep, wantRep) {
		t.Errorf("step %d: restored audit report differs:\n got  %+v\n want %+v", stopAt, gotRep, wantRep)
	}
	if !gotRep.OK() {
		t.Errorf("step %d: restored run has audit violations, first: %v", stopAt, gotRep.Violations[0])
	}
}

// TestRoundTripAllPolicies pins the determinism contract for every
// registered base policy and the wrapper combinations at a mid-run
// checkpoint.
func TestRoundTripAllPolicies(t *testing.T) {
	ts, err := rtm.Generate(rtm.DefaultGenConfig(5, 0.7, 11))
	if err != nil {
		t.Fatal(err)
	}
	specs := policies.Names()
	specs = append(specs, "lpshe+dual", "lpshe+guard", "lpshe+crit", "cc+dual", "lpshe+dual+guard")
	proc := cpu.Continuous(0.1)
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			// Find the run length, then checkpoint mid-run.
			cfg, _ := mkCfg(t, ts, spec, proc, 0)
			e, err := sim.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for e.Step() {
				total++
			}
			if total < 4 {
				t.Fatalf("degenerate run: only %d steps", total)
			}
			checkRoundTrip(t, ts, spec, proc, 0, total/2)
		})
	}
}

// TestRoundTripCheckpointSweep checkpoints the two most stateful
// policies at every phase of a run: before the first step, after one
// step, mid-run, one step before the end, and after the natural end.
func TestRoundTripCheckpointSweep(t *testing.T) {
	ts, err := rtm.Generate(rtm.DefaultGenConfig(4, 0.75, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec string
		proc *cpu.Processor
	}{
		{"lpshe", cpu.Continuous(0.1)},
		{"lpshe", cpu.UniformLevels(6)},
		{"dra", cpu.Continuous(0.1)},
		{"feedback", cpu.XScale()},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s-%s", tc.spec, tc.proc.Name()), func(t *testing.T) {
			t.Parallel()
			cfg, _ := mkCfg(t, ts, tc.spec, tc.proc, 0)
			e, err := sim.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for e.Step() {
				total++
			}
			for _, stopAt := range []int{0, 1, total / 3, total / 2, total - 1, total + 1} {
				checkRoundTrip(t, ts, tc.spec, tc.proc, 0, stopAt)
			}
		})
	}
}

// TestRoundTripWithJitterAndStalls covers the hazard paths: release
// jitter (the stateless jitter hash must re-derive identical release
// times post-restore) and transition stalls with sleep energy.
func TestRoundTripWithJitterAndStalls(t *testing.T) {
	ts, err := rtm.Generate(rtm.DefaultGenConfig(4, 0.5, 23))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts.Tasks {
		ts.Tasks[i].Jitter = 0.05 * ts.Tasks[i].Period
	}
	proc := cpu.Continuous(0.1)
	proc.SwitchTime = 0.1
	proc.SwitchEnergyCoeff = 0.1
	proc.LeakagePower = 0.05
	proc.SleepEnabled = true
	proc.SleepPower = 0.005
	proc.WakeEnergy = 0.3

	cfg, _ := mkCfg(t, ts, "lpshe+guard", proc, 41)
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for e.Step() {
		total++
	}
	for _, stopAt := range []int{1, total / 2, total - 1} {
		checkRoundTrip(t, ts, "lpshe+guard", proc, 41, stopAt)
	}
}

// captureMidRun returns a valid envelope for corruption tests.
func captureMidRun(t *testing.T) (data []byte, ts *rtm.TaskSet, key string) {
	t.Helper()
	ts, err := rtm.Generate(rtm.DefaultGenConfig(4, 0.7, 5))
	if err != nil {
		t.Fatal(err)
	}
	key = "corruption-test-key"
	cfg, aud := mkCfg(t, ts, "lpshe", cpu.Continuous(0.1), 0)
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runSteps(e, 25)
	data, err = snapshot.Capture(key, e, aud)
	if err != nil {
		t.Fatal(err)
	}
	return data, ts, key
}

// TestCorruptionFailsClosed is the fail-closed contract: every class
// of damage — truncation, bit flips in the payload or checksum, a
// future or retired format version, bad magic, trailing garbage, a
// replay point the run never reaches, a different scenario key — must
// yield a typed error and no engine.
func TestCorruptionFailsClosed(t *testing.T) {
	data, ts, key := captureMidRun(t)
	restore := func(b []byte, k string) (*sim.Engine, error) {
		cfg, aud := mkCfg(t, ts, "lpshe", cpu.Continuous(0.1), 0)
		return snapshot.Restore(b, k, cfg, aud)
	}

	if _, err := restore(data, key); err != nil {
		t.Fatalf("pristine snapshot must restore: %v", err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 7, 8, 23, 24, len(data) / 2, len(data) - 33, len(data) - 1} {
			e, err := restore(data[:cut], key)
			if err == nil || e != nil {
				t.Fatalf("cut=%d: restore = (%v, %v), want typed error", cut, e, err)
			}
		}
	})
	t.Run("flipped-checksum-byte", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(bad)-5] ^= 0x01
		e, err := restore(bad, key)
		if !errors.Is(err, snapshot.ErrChecksum) || e != nil {
			t.Fatalf("restore = (%v, %v), want ErrChecksum", e, err)
		}
	})
	t.Run("flipped-payload-byte", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(bad)/2] ^= 0x80
		e, err := restore(bad, key)
		if !errors.Is(err, snapshot.ErrChecksum) || e != nil {
			t.Fatalf("restore = (%v, %v), want ErrChecksum", e, err)
		}
	})
	t.Run("future-version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[8] = 0xFF // version field, little-endian
		e, err := restore(bad, key)
		if !errors.Is(err, snapshot.ErrVersion) || e != nil {
			t.Fatalf("restore = (%v, %v), want ErrVersion", e, err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] = 'X'
		e, err := restore(bad, key)
		if !errors.Is(err, snapshot.ErrBadMagic) || e != nil {
			t.Fatalf("restore = (%v, %v), want ErrBadMagic", e, err)
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), data...), 0xEE)
		e, err := restore(bad, key)
		if err == nil || e != nil {
			t.Fatalf("restore = (%v, %v), want error", e, err)
		}
	})
	// The next three envelopes carry a valid checksum, so the edit
	// itself, not the integrity check, must make Restore fail.
	reencode := func(edit func(*snapshot.Envelope)) []byte {
		env, err := snapshot.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		edit(env)
		return snapshot.Encode(env)
	}
	t.Run("steps-past-end", func(t *testing.T) {
		bad := reencode(func(env *snapshot.Envelope) { env.Steps += 1 << 32 })
		e, err := restore(bad, key)
		if !errors.Is(err, snapshot.ErrDiverged) || e != nil {
			t.Fatalf("restore = (%v, %v), want ErrDiverged", e, err)
		}
	})
	t.Run("flipped-digest-bit", func(t *testing.T) {
		bad := reencode(func(env *snapshot.Envelope) { env.Digest[7] ^= 0x10 })
		e, err := restore(bad, key)
		if !errors.Is(err, snapshot.ErrDiverged) || e != nil {
			t.Fatalf("restore = (%v, %v), want ErrDiverged", e, err)
		}
	})
	t.Run("version-1", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint64(bad[8:16], 1)
		sum := sha256.Sum256(bad[:len(bad)-sha256.Size])
		copy(bad[len(bad)-sha256.Size:], sum[:])
		e, err := restore(bad, key)
		if !errors.Is(err, snapshot.ErrVersion) || e != nil {
			t.Fatalf("restore = (%v, %v), want ErrVersion", e, err)
		}
	})
	t.Run("wrong-scenario-key", func(t *testing.T) {
		e, err := restore(data, "a-different-scenario")
		if !errors.Is(err, snapshot.ErrKeyMismatch) || e != nil {
			t.Fatalf("restore = (%v, %v), want ErrKeyMismatch", e, err)
		}
	})
	t.Run("wrong-policy-config", func(t *testing.T) {
		// Same key string, different policy: the replay reaches a
		// different state, so the digest check must reject it.
		cfg, aud := mkCfg(t, ts, "cc", cpu.Continuous(0.1), 0)
		e, err := snapshot.Restore(data, key, cfg, aud)
		if err == nil || e != nil {
			t.Fatalf("restore = (%v, %v), want error", e, err)
		}
	})
}

// TestRestoreErrorLeavesAuditorUntouched pins the no-partial-state
// contract on the auditor side.
func TestRestoreErrorLeavesAuditorUntouched(t *testing.T) {
	data, ts, key := captureMidRun(t)
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0x40

	cfg, aud := mkCfg(t, ts, "lpshe", cpu.Continuous(0.1), 0)
	if _, err := snapshot.Restore(bad, key, cfg, aud); err == nil {
		t.Fatal("corrupt restore must fail")
	}
	rep := aud.Finish(sim.Result{})
	if rep.JobsReleased != 0 || rep.Dispatches != 0 {
		t.Fatalf("auditor mutated by failed restore: %+v", rep)
	}
}

// TestReplayStops pins the early exit a pausable caller relies on:
// Replay polls stop at every boundary short of the replay point,
// returns at the first true without an error, and a later Replay of
// the same engine picks up where it stopped.
func TestReplayStops(t *testing.T) {
	data, ts, key := captureMidRun(t)
	env, err := snapshot.Open(data, key)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := mkCfg(t, ts, "lpshe", cpu.Continuous(0.1), 0)
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	reached, err := env.Replay(e, func() bool { polls++; return polls == 10 })
	if reached || err != nil || e.Steps() != 9 {
		t.Fatalf("stopped replay = (%v, %v) at step %d, want (false, nil) at step 9", reached, err, e.Steps())
	}
	if reached, err := env.Replay(e, nil); !reached || err != nil || e.Steps() != env.Steps {
		t.Fatalf("continued replay = (%v, %v) at step %d, want (true, nil) at step %d", reached, err, e.Steps(), env.Steps)
	}
}

// TestRoundTripPolicyWithoutCodec checkpoints a policy that knows
// nothing about snapshots, mid-run and after the natural end: replay
// needs no per-policy state codec.
func TestRoundTripPolicyWithoutCodec(t *testing.T) {
	ts, err := rtm.Generate(rtm.DefaultGenConfig(3, 0.5, 9))
	if err != nil {
		t.Fatal(err)
	}
	proc := cpu.Continuous(0.1)
	cfg, _ := mkCfg(t, ts, bareSpec, proc, 0)
	e, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for e.Step() {
		total++
	}
	for _, stopAt := range []int{total / 2, total + 1} {
		checkRoundTrip(t, ts, bareSpec, proc, 0, stopAt)
	}
}

// bareSpec selects bareNonDVS in mkCfg; it is not a registered spec.
const bareSpec = "bare"

// bareNonDVS is a test-local policy with no checkpoint support of its
// own.
type bareNonDVS struct{}

func (bareNonDVS) Name() string                      { return "bare" }
func (bareNonDVS) Reset(sim.System)                  {}
func (bareNonDVS) SelectSpeed(*sim.JobState) float64 { return 1 }
func (bareNonDVS) OnRelease(*sim.JobState)           {}
func (bareNonDVS) OnComplete(*sim.JobState)          {}
func (bareNonDVS) OnAdvance(float64)                 {}

// FuzzDecode hardens the envelope decoder against arbitrary bytes: it
// must never panic and never return both an envelope and an error.
func FuzzDecode(f *testing.F) {
	ts, err := rtm.Generate(rtm.DefaultGenConfig(3, 0.6, 13))
	if err != nil {
		f.Fatal(err)
	}
	pol, err := policies.New("lpshe")
	if err != nil {
		f.Fatal(err)
	}
	cfg := sim.Config{
		TaskSet:   ts,
		Processor: cpu.Continuous(0.1),
		Policy:    pol,
		Workload:  workload.Uniform{Lo: 0.25, Hi: 1, Seed: 7},
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 10 && e.Step(); i++ {
	}
	seed, err := snapshot.Capture("fuzz-seed", e, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:24])
	f.Add([]byte("DVSSNAP\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := snapshot.Decode(data)
		if env != nil && err != nil {
			t.Fatalf("Decode returned both an envelope and error %v", err)
		}
		if env != nil {
			// A decodable envelope must re-encode decodable.
			if _, err := snapshot.Decode(snapshot.Encode(env)); err != nil {
				t.Fatalf("re-encode of decoded envelope fails: %v", err)
			}
		}
	})
}
