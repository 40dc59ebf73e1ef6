package mc

import "weakstab/internal/sim"

// stream is the counter-based deterministic random stream of one walker
// (the same construction as netsim's Stream): every draw is a pure hash
// of the walker key and the step counter, never of how many draws came
// before it. A walker's whole trajectory is therefore a pure function of
// (space, target, seed, trial) — bit-identical no matter how trials are
// batched or how many workers race through the batches.
//
// The walker key derives from sim.TrialSeed(seed, trial), the same
// per-trial derivation every other simulator in the repo uses, so MC
// trial t is replayable in isolation with the tools that already exist.
type stream struct {
	key uint64
}

// walkerStream returns the private stream of one walker.
func walkerStream(seed int64, trial int) stream {
	return stream{key: mix64(uint64(sim.TrialSeed(seed, trial)))}
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// bits returns the 64 uniform raw bits at step coordinate c.
func (s stream) bits(c uint64) uint64 {
	return mix64(s.key ^ mix64(c+0x9e3779b97f4a7c15))
}

// float returns the uniform float64 in [0, 1) at step coordinate c.
func (s stream) float(c uint64) float64 { return unit(s.bits(c)) }

// unit maps 64 raw bits to the float64 in [0, 1) their top 53 bits
// spell: (x>>11)·2⁻⁵³.
func unit(x uint64) float64 { return float64(x>>11) * (1.0 / (1 << 53)) }

// startCoord is the draw coordinate of the initial-state pick. Step
// draws use coordinates 0..MaxSteps-1, so the all-ones coordinate can
// never collide with them.
const startCoord = ^uint64(0)
