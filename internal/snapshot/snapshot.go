// Package snapshot frames simulation checkpoints as versioned,
// self-describing, integrity-checked byte envelopes.
//
// A checkpoint is a replay point, not a state dump. The engine, the
// seeded workload and every policy are deterministic, so a run's
// state after N Steps follows from its request and N alone. An
// envelope therefore carries only the scenario key of the request,
// the step count, and a digest of the engine's observables at that
// step (sim.(*Engine).Digest); Restore rebuilds the engine by
// replaying the prefix and proves the replay by comparing digests.
//
//	offset  size  field
//	0       8     magic "DVSSNAP\x00"
//	8       8     format version (little-endian uint64)
//	16      8     body length N (little-endian uint64)
//	24      N     body: step count (LE uint64), 32-byte engine digest,
//	              then the scenario key in the remaining N-40 bytes
//	24+N    32    SHA-256 over bytes [0, 24+N)
//
// Decoding is strict and fails closed: bad magic, an unknown (or
// future) version, a truncated payload, a checksum mismatch, or
// trailing bytes after the checksum each yield a typed error and no
// partial state. The scenario key binds a snapshot to the exact
// simulation request it was taken from; Restore refuses a snapshot
// whose key differs from the caller's, so a checkpoint can never be
// resumed against a different scenario's configuration.
//
// Version policy: the version is bumped on any change to the body
// layout or to what the digest covers. Readers accept exactly the
// versions they know; there is no best-effort decoding of other
// snapshots. Version 1 envelopes (engine and auditor state dumps) are
// rejected with ErrVersion.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"dvsslack/internal/sim"
)

// Version is the current snapshot format version.
const Version = 2

// magic identifies a dvsslack snapshot envelope.
var magic = [8]byte{'D', 'V', 'S', 'S', 'N', 'A', 'P', 0}

const (
	headerLen   = 8 + 8 + 8 // magic + version + body length
	checksumLen = sha256.Size
	digestLen   = sha256.Size
	fixedBody   = 8 + digestLen // step count + digest, before the key
)

// Typed failures. All of them fail closed: Decode returns no
// envelope and Restore returns no engine.
var (
	// ErrBadMagic reports bytes that are not a snapshot envelope.
	ErrBadMagic = errors.New("snapshot: bad magic (not a dvsslack snapshot)")
	// ErrVersion reports an unknown or future format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrTruncated reports an envelope shorter than its header and
	// length field claim.
	ErrTruncated = errors.New("snapshot: truncated envelope")
	// ErrChecksum reports an integrity failure: the payload does not
	// hash to the stored checksum.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrTrailingData reports extra bytes after the checksum.
	ErrTrailingData = errors.New("snapshot: trailing data after envelope")
	// ErrKeyMismatch reports a restore against a different scenario
	// than the snapshot was captured from.
	ErrKeyMismatch = errors.New("snapshot: scenario key mismatch")
	// ErrDiverged reports a replay that did not reach the captured
	// state: the run ended before the recorded step count, or the
	// engine digest at that step differs.
	ErrDiverged = errors.New("snapshot: replay diverged from the captured run")
)

// MaxSnapshotBytes caps the envelope size accepted by Decode and by
// the dvsd restore endpoint. Real snapshots are about a hundred
// bytes; the cap only exists to bound what a hostile payload can make
// a server hold.
const MaxSnapshotBytes = 16 << 20

// Envelope is the decoded content of a snapshot.
type Envelope struct {
	// ScenarioKey is the canonical key of the simulation request this
	// snapshot was captured from (server.ScenarioKey).
	ScenarioKey string
	// Steps is the engine's step count at the checkpoint
	// (sim.(*Engine).Steps).
	Steps uint64
	// Digest is the engine's observables digest at that step
	// (sim.(*Engine).Digest).
	Digest [digestLen]byte
}

// Encode frames env as a versioned, checksummed envelope.
func Encode(env *Envelope) []byte {
	bodyLen := fixedBody + len(env.ScenarioKey)
	out := make([]byte, 0, headerLen+bodyLen+checksumLen)
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint64(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(bodyLen))
	out = binary.LittleEndian.AppendUint64(out, env.Steps)
	out = append(out, env.Digest[:]...)
	out = append(out, env.ScenarioKey...)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// Decode parses and verifies an envelope. It checks, in order: size
// bounds, magic, version, declared body length (no trailing bytes),
// checksum, and that the body holds the step count and digest.
func Decode(data []byte) (*Envelope, error) {
	if len(data) > MaxSnapshotBytes {
		return nil, fmt.Errorf("snapshot: envelope of %d bytes exceeds limit %d", len(data), MaxSnapshotBytes)
	}
	if len(data) < headerLen+checksumLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the fixed framing", ErrTruncated, len(data))
	}
	if [8]byte(data[:8]) != magic {
		return nil, ErrBadMagic
	}
	version := binary.LittleEndian.Uint64(data[8:16])
	if version != Version {
		return nil, fmt.Errorf("%w: %d (this build reads version %d)", ErrVersion, version, Version)
	}
	bodyLen := binary.LittleEndian.Uint64(data[16:24])
	if bodyLen != uint64(len(data)-headerLen-checksumLen) {
		if bodyLen > uint64(len(data)) {
			return nil, fmt.Errorf("%w: body length %d exceeds envelope", ErrTruncated, bodyLen)
		}
		return nil, fmt.Errorf("%w: %d bytes after the declared body", ErrTrailingData,
			uint64(len(data)-headerLen-checksumLen)-bodyLen)
	}
	payloadEnd := headerLen + int(bodyLen)
	sum := sha256.Sum256(data[:payloadEnd])
	var stored [checksumLen]byte
	copy(stored[:], data[payloadEnd:])
	if sum != stored {
		return nil, ErrChecksum
	}

	body := data[headerLen:payloadEnd]
	if len(body) < fixedBody {
		return nil, fmt.Errorf("%w: body of %d bytes has no step count and digest", ErrTruncated, len(body))
	}
	env := &Envelope{
		Steps:       binary.LittleEndian.Uint64(body),
		ScenarioKey: string(body[fixedBody:]),
	}
	copy(env.Digest[:], body[8:fixedBody])
	return env, nil
}

// Capture records a running engine's replay point — its step count
// and observables digest — in a framed envelope bound to scenarioKey.
// The engine must be between Step calls; Capture does not advance it.
// The run's observers (an auditor, a flight recorder) need no capture
// of their own: Restore replays the prefix through the restoring
// config's observers.
func Capture(scenarioKey string, e *sim.Engine) []byte {
	return Encode(&Envelope{ScenarioKey: scenarioKey, Steps: e.Steps(), Digest: e.Digest()})
}

// Restore decodes data, verifies it was captured from scenarioKey,
// and rebuilds the engine by running sim.NewEngine(cfg) forward the
// recorded number of Steps. cfg must be rebuilt from the same
// simulation request that produced scenarioKey. Its observers see the
// replayed prefix, so an auditor attached through cfg.Observer still
// checks the whole run and a flight recorder records the prefix.
//
// On error the returned engine is nil. Decode and key failures leave
// cfg's observers untouched; a divergence found during replay
// (ErrDiverged) leaves them mid-run, and the caller must discard
// them. A nil-error return means the engine is in the captured state
// and will run the remainder bit-identically to the run the snapshot
// was taken from.
func Restore(data []byte, scenarioKey string, cfg sim.Config) (*sim.Engine, error) {
	env, err := Open(data, scenarioKey)
	if err != nil {
		return nil, err
	}
	e, err := sim.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := env.Replay(e, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// Open decodes data and verifies it was captured from scenarioKey.
// It is the part of Restore that needs no engine; Replay does the
// rest.
func Open(data []byte, scenarioKey string) (*Envelope, error) {
	env, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if env.ScenarioKey != scenarioKey {
		return nil, fmt.Errorf("%w: snapshot is for %.12s…, request is %.12s…",
			ErrKeyMismatch, env.ScenarioKey, scenarioKey)
	}
	return env, nil
}

// Replay steps e, a fresh engine for the request env was captured
// from, to env's replay point and checks the digest there. stop, when
// non-nil, is polled at every step boundary short of the replay
// point; once it reports true Replay returns false with a nil error
// and leaves e partway, so a caller can give up on a long replay
// within one step (its checkpoint is then still env). Replay returns
// true once e is in the captured state, and ErrDiverged when the run
// ends early or the digest differs.
func (env *Envelope) Replay(e *sim.Engine, stop func() bool) (bool, error) {
	for e.Steps() < env.Steps {
		if stop != nil && stop() {
			return false, nil
		}
		if !e.Step() {
			break
		}
	}
	if e.Steps() != env.Steps {
		return false, fmt.Errorf("%w: the run ended after %d of %d steps", ErrDiverged, e.Steps(), env.Steps)
	}
	if e.Digest() != env.Digest {
		return false, fmt.Errorf("%w: engine digest differs at step %d", ErrDiverged, env.Steps)
	}
	return true, nil
}
