package sim

import "fmt"

// This file is the dynamic companion to the shrimplint static rules: a
// replay-divergence harness. A scenario is run twice and the complete event
// stream of every engine it attaches the digest to — event times, sequence
// numbers, and process dispatches — is folded into an FNV-1a digest. Equal
// digests mean the two runs executed the identical schedule; a mismatch
// means something nondeterministic (map iteration order, unseeded
// randomness, wall-clock leakage, host-scheduler dependence) steered the
// simulation.
//
// Nothing is attached implicitly: a scenario hands its fold to each engine
// it builds, through Engine.AttachDigest or cluster.Config.Auto.

// TB is the subset of testing.TB the determinism checker needs, declared
// locally so sim does not import the testing package.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// DigestTracer folds an execution stream into an FNV-1a hash. One fold may
// be attached to several engines; it then digests all of them in the order
// their events run.
type DigestTracer struct {
	sum uint64
	// Events and Switches tally what was hashed, for failure diagnostics.
	Events   int64
	Switches int64
}

// NewDigestTracer returns an empty digest fold.
func NewDigestTracer() *DigestTracer { return &DigestTracer{sum: fnvOffset64} }

// Sum returns the FNV-1a digest of everything observed so far.
func (d *DigestTracer) Sum() uint64 { return d.sum }

func (d *DigestTracer) mixByte(b byte) {
	d.sum ^= uint64(b)
	d.sum *= fnvPrime64
}

func (d *DigestTracer) mix64(v uint64) {
	for i := 0; i < 8; i++ {
		d.mixByte(byte(v >> (8 * i)))
	}
}

// Event implements Tracer.
func (d *DigestTracer) Event(at Time, seq uint64) {
	d.Events++
	d.mixByte(0x01)
	d.mix64(uint64(at))
	d.mix64(seq)
}

// ProcSwitch implements Tracer.
func (d *DigestTracer) ProcSwitch(at Time, name string) {
	d.Switches++
	d.mixByte(0x02)
	d.mix64(uint64(at))
	for i := 0; i < len(name); i++ {
		d.mixByte(name[i])
	}
	d.mixByte(0x00)
}

// CheckDeterminism runs scenario twice, each time with a fresh digest fold
// the scenario must attach to every engine it builds, and fails t if the
// two digests differ: the simulation's promise is that identical scenarios
// replay bit-for-bit, so any divergence is a determinism bug (map-order
// iteration, unseeded randomness, wall-clock or host-scheduler leakage).
// A first run whose fold saw no events fails too — the scenario forgot to
// attach it, and the comparison would pass vacuously.
func CheckDeterminism(t TB, scenario func(d Tracer)) {
	t.Helper()
	first := NewDigestTracer()
	scenario(first)
	if first.Events == 0 {
		t.Fatalf("sim: scenario attached no digest: the fold saw no events; " +
			"pass it to every engine through Engine.AttachDigest or cluster.Config.Auto")
		return
	}
	second := NewDigestTracer()
	scenario(second)
	if first.sum != second.sum {
		t.Fatalf("sim: replay divergence: run 1 digest %#016x != run 2 digest %#016x\n"+
			"the scenario executed a different event schedule on each run; "+
			"look for map iteration driving scheduling, unseeded math/rand, or wall-clock reads", first.sum, second.sum)
	}
}

// DigestString formats a digest the way failure messages render it.
func DigestString(d uint64) string { return fmt.Sprintf("%#016x", d) }
