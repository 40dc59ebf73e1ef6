package netsim

import "math"

// Stream is a counter-based deterministic random stream: every draw is a
// pure hash of the stream key and up to three caller-chosen coordinates
// (edge id, sequence number, copy index, process id, round, ...). Unlike a
// sequential generator, a draw never depends on how many draws happened
// before it, so fault decisions are identical no matter how the event loop
// is sharded or how many workers race through it — the reproducibility
// contract "same (topology, faults, seed) ⇒ same run" holds bit-for-bit
// across worker counts.
//
// The hash is the splitmix64 finalizer chained over the coordinates; its
// avalanche behavior is far better than the statistical resolution of any
// experiment in this package.
type Stream struct {
	key uint64
}

// NewStream derives an independent stream from a seed and a salt label.
// Distinct salts yield streams that are independent for every practical
// purpose, which is how each fault in a stack gets its own randomness.
func NewStream(seed int64, salt string) Stream {
	h := uint64(seed) ^ 0xcbf29ce484222325
	for i := 0; i < len(salt); i++ {
		h = (h ^ uint64(salt[i])) * 0x100000001b3
	}
	return Stream{key: mix64(h)}
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

// The per-coordinate offsets of At: coordinate a, b, c is hashed as
// mix64(a+streamA), mix64(b+streamB), mix64(c+streamC).
const (
	streamA = 0x9e3779b97f4a7c15
	streamB = 0x6a09e667f3bcc909
	streamC = 0xbb67ae8584caa73b
)

// At returns the uniform 64-bit value of the stream at coordinates
// (a, b, c).
func (s Stream) At(a, b, c uint64) uint64 {
	x := s.key
	x = mix64(x ^ mix64(a+streamA))
	x = mix64(x ^ mix64(b+streamB))
	x = mix64(x ^ mix64(c+streamC))
	return x
}

// Float returns the uniform float64 in [0, 1) at coordinates (a, b, c).
func (s Stream) Float(a, b, c uint64) float64 { return unit(s.At(a, b, c)) }

// unit maps a uniform 64-bit value to the uniform float64 in [0, 1).
func unit(u uint64) float64 { return float64(u>>11) * (1.0 / (1 << 53)) }

// edgeTerm is At's first-coordinate term for directed edge e. It does not
// depend on the stream key, so Topology computes it once per edge for
// every fault and every trial.
func edgeTerm(e int32) uint64 { return mix64(uint64(uint32(e)) + streamA) }

// copyTerms[c] is At's third-coordinate term for the copy coordinates the
// link faults draw at: copy, 1+copy and 256+copy, all below 512.
var copyTerms = func() (t [512]uint64) {
	for c := range t {
		t[c] = mix64(uint64(c) + streamC)
	}
	return t
}()

// edgeDraws is a Stream with the coordinates (e, seq) of one publication
// already hashed in: d.at(c) == s.At(uint64(uint32(e)), uint64(seq), c).
// A link fault derives it once per publication (three mix64 rounds with
// the topology's cached edge term), then pays one round per draw.
type edgeDraws uint64

// onEdge returns the draws of publication seq on edge e of t.
func (s Stream) onEdge(t *Topology, e int32, seq uint32) edgeDraws {
	x := mix64(s.key ^ t.eterm[e])
	return edgeDraws(mix64(x ^ mix64(uint64(seq)+streamB)))
}

// at is Stream.At at third coordinate c.
func (d edgeDraws) at(c uint64) uint64 {
	if c < uint64(len(copyTerms)) {
		return mix64(uint64(d) ^ copyTerms[c])
	}
	return mix64(uint64(d) ^ mix64(c+streamC))
}

// float is Stream.Float at third coordinate c.
func (d edgeDraws) float(c uint64) float64 { return unit(d.at(c)) }

// geometric maps a uniform 64-bit value to 1 + Geometric(p) with mean
// `mean` (>= 1): the discrete holding time of a process that escapes with
// probability 1/mean per round, never less than one round.
func geometric(u uint64, mean float64) int32 {
	if mean <= 1 {
		return 1
	}
	f := unit(u)
	if f <= 0 {
		f = math.SmallestNonzeroFloat64
	}
	p := 1 / mean
	k := math.Floor(math.Log(f) / math.Log(1-p))
	if k < 0 {
		k = 0
	}
	if k > 1<<20 {
		k = 1 << 20
	}
	return 1 + int32(k)
}
