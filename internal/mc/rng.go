package mc

import "weakstab/internal/sim"

// A walker's random stream is counter-based (the same construction as
// netsim's Stream): every draw is a pure hash of the walker key and the
// step coordinate, never of how many draws came before it. A walker's
// whole trajectory is therefore a pure function of (space, target, seed,
// trial) — bit-identical no matter how trials are batched, how many
// workers race through the batches or which lane steps the walker.
//
// The walker key derives from sim.TrialSeed(seed, trial), the same
// per-trial derivation every other simulator in the repo uses, so MC
// trial t is replayable in isolation with the tools that already exist.

// walkerKey returns the stream key of one walker.
func walkerKey(seed int64, trial int) uint64 {
	return sim.Mix64(uint64(sim.TrialSeed(seed, trial)))
}

// gamma is the splitmix64 increment a draw's coordinate is offset by
// before its inner hash.
const gamma = 0x9e3779b97f4a7c15

// draw returns the 64 uniform raw bits of the stream keyed key at step
// coordinate c: Mix64(key ^ Mix64(c + gamma)), the inner hash read from
// stepTerms when the table covers c.
func draw(key, c uint64) uint64 {
	if c < stepTermsLen {
		return sim.Mix64(key ^ stepTerms[c])
	}
	return sim.Mix64(key ^ sim.Mix64(c+gamma))
}

// stepTermsLen is how many step coordinates stepTerms covers: 8 KiB,
// past the hitting times of every space the walk benchmarks sample.
const stepTermsLen = 1 << 10

// stepTerms[c] is the inner hash of step coordinate c < stepTermsLen, so
// a step's draw costs one Mix64 instead of two.
var stepTerms = func() (t [stepTermsLen]uint64) {
	for c := range t {
		t[c] = sim.Mix64(uint64(c) + gamma)
	}
	return t
}()

// unit maps 64 raw bits to the float64 in [0, 1) their top 53 bits
// spell: (x>>11)·2⁻⁵³.
func unit(x uint64) float64 { return float64(x>>11) * (1.0 / (1 << 53)) }

// startTerm is the inner hash of the start draw's coordinate, the
// all-ones coordinate no step draw uses (steps use 0..MaxSteps-1):
// Mix64(^uint64(0) + gamma), spelled out.
const startTerm = 0xe4d971771b652c20
