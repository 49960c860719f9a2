package dvsslack

// Snapshot benchmarks: the cost of freezing a mid-run engine into a
// checkpoint envelope and of rebuilding a live engine from one by
// replay. Both sit on the daemon's pause/drain path (every POST
// /v1/jobs/{id}/checkpoint and every fleet migration pays them once
// per in-flight run), so bench.sh records their trajectory alongside
// the scheduling hot paths.

import (
	"testing"

	"dvsslack/internal/policies"
	"dvsslack/internal/rtm"
	"dvsslack/internal/sim"
	"dvsslack/internal/snapshot"
	"dvsslack/internal/workload"

	"dvsslack/internal/cpu"
)

// snapshotBenchConfig builds a mid-size configuration with a fresh
// policy instance (engines own their policy state, so every restore
// needs its own).
func snapshotBenchConfig(b *testing.B) sim.Config {
	b.Helper()
	mk, err := policies.Lookup("lpshe")
	if err != nil {
		b.Fatal(err)
	}
	return sim.Config{
		TaskSet:   rtm.MustGenerate(rtm.DefaultGenConfig(8, 0.7, 1)),
		Processor: cpu.Continuous(0.1),
		Policy:    mk(),
		Workload:  workload.Uniform{Lo: 0.5, Hi: 1, Seed: 1},
		Horizon:   1e5,
	}
}

// snapshotBenchStep is the checkpoint position of the snapshot
// benchmarks, deep enough into the run to carry a realistic job
// backlog and history.
const snapshotBenchStep = 2000

// snapshotBenchEngine steps a fresh engine to snapshotBenchStep.
func snapshotBenchEngine(b *testing.B) *sim.Engine {
	b.Helper()
	e, err := sim.NewEngine(snapshotBenchConfig(b))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < snapshotBenchStep; i++ {
		if !e.Step() {
			b.Fatal("engine finished before the bench checkpoint position")
		}
	}
	return e
}

// BenchmarkSnapshotCapture measures freezing one mid-run engine into
// a framed, checksummed envelope.
func BenchmarkSnapshotCapture(b *testing.B) {
	e := snapshotBenchEngine(b)
	b.ReportAllocs()
	var size int
	for i := 0; i < b.N; i++ {
		size = len(snapshot.Capture("bench", e))
	}
	b.ReportMetric(float64(size), "snapshot-bytes")
}

// BenchmarkSnapshotReplay measures rebuilding a live engine from an
// envelope captured at snapshotBenchStep: decode, checksum, the
// replayed Steps and the digest check. Restore time is linear in the
// captured step count by design; ns/step reports the slope.
func BenchmarkSnapshotReplay(b *testing.B) {
	data := snapshot.Capture("bench", snapshotBenchEngine(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := snapshot.Restore(data, "bench", snapshotBenchConfig(b)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*snapshotBenchStep), "ns/step")
}
