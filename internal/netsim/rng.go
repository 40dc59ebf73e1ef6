package netsim

import (
	"math"

	"weakstab/internal/sim"
)

// Stream is a counter-based deterministic random stream: every draw is a
// pure hash of the stream key and up to three caller-chosen coordinates
// (edge id, sequence number, copy index, process id, round, ...). Unlike a
// sequential generator, a draw never depends on how many draws happened
// before it, so fault decisions are identical no matter how the event loop
// is sharded or how many workers race through it — the reproducibility
// contract "same (topology, faults, seed) ⇒ same run" holds bit-for-bit
// across worker counts.
//
// The hash is the splitmix64 finalizer (sim.Mix64) chained over the
// coordinates; its avalanche behavior is far better than the statistical
// resolution of any experiment in this package.
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
	return Stream{key: sim.Mix64(h)}
}

// The per-coordinate offsets of At: coordinate a, b, c is hashed as
// Mix64(a+streamA), Mix64(b+streamB), Mix64(c+streamC).
const (
	streamA = 0x9e3779b97f4a7c15
	streamB = 0x6a09e667f3bcc909
	streamC = 0xbb67ae8584caa73b
)

// At returns the uniform 64-bit value of the stream at coordinates
// (a, b, c).
func (s Stream) At(a, b, c uint64) uint64 {
	x := s.key
	x = sim.Mix64(x ^ sim.Mix64(a+streamA))
	x = sim.Mix64(x ^ sim.Mix64(b+streamB))
	x = sim.Mix64(x ^ sim.Mix64(c+streamC))
	return x
}

// Float returns the uniform float64 in [0, 1) at coordinates (a, b, c).
func (s Stream) Float(a, b, c uint64) float64 { return unit(s.At(a, b, c)) }

// unit maps a uniform 64-bit value to the uniform float64 in [0, 1).
func unit(u uint64) float64 { return float64(u>>11) * (1.0 / (1 << 53)) }

// A link-fault draw is Stream.At at (edge, sequence, copy), split into the
// three coordinate rounds so that each is hashed as rarely as possible:
//
//	At(e, seq, c) = Mix64(Mix64(edgeKey[e] ^ seqTerm(seq)) ^ copyTerm(c))
//	edgeKey[e]    = Mix64(key ^ edgeTerm(e))
//
// A fault computes its edgeKeys once per run (Reset), the engine computes
// seqTerm once per distinct sequence number (Batch.seqTerms) and copyTerm
// is a table, so a draw costs two splitmix rounds. A probability test
// compares the top 53 bits of a draw with an integer threshold instead of
// converting it to a float.

// edgeTerm is At's first-coordinate term for directed edge e.
func edgeTerm(e int32) uint64 { return sim.Mix64(uint64(uint32(e)) + streamA) }

// seqTerm is At's second-coordinate term for sequence number seq.
func seqTerm(seq uint32) uint64 { return sim.Mix64(uint64(seq) + streamB) }

// copyTerms[c] is At's third-coordinate term for the copy coordinates the
// link faults draw at: copy, 1+copy and 256+copy, all below 512.
var copyTerms = func() (t [512]uint64) {
	for c := range t {
		t[c] = sim.Mix64(uint64(c) + streamC)
	}
	return t
}()

// edgeKeys returns the stream's per-edge keys for every edge of t,
// keys[e] = Mix64(key ^ edgeTerm(e)), reusing the storage of keys. When
// keys has less room than t.NumEdges() it allocates once, that long.
func (s Stream) edgeKeys(keys []uint64, t *Topology) []uint64 {
	if n := t.NumEdges(); cap(keys) < n {
		keys = make([]uint64, n)
	} else {
		keys = keys[:n]
	}
	for e := range keys {
		keys[e] = sim.Mix64(s.key ^ edgeTerm(int32(e)))
	}
	return keys
}

// edgeDraws is a Stream with the coordinates (e, seq) of one publication
// already hashed in: d.at(c) == s.At(uint64(uint32(e)), uint64(seq), c).
type edgeDraws uint64

// at is Stream.At at third coordinate c < 512, which covers every copy
// coordinate of a byte-sized copy index.
func (d edgeDraws) at(c uint64) uint64 { return sim.Mix64(uint64(d) ^ copyTerms[c]) }

// threshold returns the integer form of a probability test:
// u>>11 < threshold(p) exactly when unit(u) < p. unit(u) is k/2^53 for
// the integer k = u>>11, and k/2^53 < p holds for exactly the k below
// ceil(p·2^53), clamped to [0, 2^53]; NaN gives 0, like every comparison
// with NaN.
func threshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// hit reports unit(u) < p for thr = threshold(p).
func hit(u, thr uint64) bool { return u>>11 < thr }

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
