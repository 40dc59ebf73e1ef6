package statespace

import (
	"cmp"
	"math"
	"slices"
)

// Edge probabilities. Every weight of an explored space is the daemon's
// 1/|subsets| times a product of coin probabilities, so a space holds a
// tiny alphabet of them (8 to 60 distinct values on the shipped
// instances). Probs stores a space's probabilities as a sorted palette of
// at most maxPalette values plus one uint8 code per edge: 1 byte per edge
// instead of 8, in memory, in the serial format and in every copy the
// engines make. An alphabet that overflows the palette (a user algorithm
// with many coin biases, a hand-built chain) keeps a plain float64 per
// edge instead. Either way At returns the exact bits exploration
// computed, so no analysis can tell the layouts apart.

// maxPalette is the largest alphabet a palette codes: one uint8 per edge.
const maxPalette = 256

// Probs is the edge-probability array of a CSR: At(e) is the probability
// of the edge at CSR position e. A consumer binds it once (Space.CSR,
// Space.Probs) and reads At in its loops; the layout is fixed at the bind
// and never changes. The slices alias the space: callers must not modify
// them.
type Probs struct {
	pal  []float64 // coded layout: the palette, ascending (see palCmp)
	code []uint8   // coded layout: palette index per edge
	wide []float64 // plain layout: the probability per edge; nil when coded
}

// WideProbs wraps a plain float64 probability array, aligned with a CSR's
// successors, without copying it.
func WideProbs(p []float64) Probs { return Probs{wide: p} }

// At returns the probability of the edge at CSR position e.
func (p Probs) At(e int64) float64 {
	if p.wide != nil {
		return p.wide[e]
	}
	return p.pal[p.code[e]]
}

// Coded reports whether the probabilities are palette-coded.
func (p Probs) Coded() bool { return p.wide == nil }

// Palette returns the palette of a coded array, ascending, and nil for a
// plain one.
func (p Probs) Palette() []float64 { return p.pal }

// palCmp is the palette order: ascending by value, ties between distinct
// bit patterns (−0 and +0, NaN payloads) broken by bits, so a palette's
// order is a function of its value set alone.
func palCmp(a, b float64) int {
	if c := cmp.Compare(a, b); c != 0 {
		return c
	}
	return cmp.Compare(math.Float64bits(a), math.Float64bits(b))
}

// packProbs codes a plain probability array: palette-coded when it holds
// at most 256 distinct values, a copy of it otherwise.
func packProbs(v []float64) Probs {
	var b probBuf
	for _, p := range v {
		b.add(p)
	}
	pal, ok := unionPalette([]Probs{b.view()})
	out := newProbs(pal, ok, int64(len(v)))
	m := remapTo(pal, b.view())
	out.copyRows(0, b.view(), 0, int64(len(v)), &m)
	return out
}

// probBuf codes the probabilities of one exploration fragment as they
// arrive: a local palette in first-seen order, looked up through a small
// open-addressing table on the value's bits, and one code per edge. The
// 257th distinct value switches the fragment to plain values for good.
// Its arrays are reused across fragments (reset); view exposes them and
// frag copies them out at their exact size.
type probBuf struct {
	pal      []float64
	code     []uint8
	wide     []float64
	overflow bool
	// slots[h] is 1 + the palette index of the value hashing to h (linear
	// probing), 0 when empty; twice the palette size keeps probes short.
	slots [2 * maxPalette]uint16
}

// reset empties the buffer for the next fragment, keeping its arrays.
func (b *probBuf) reset() {
	b.pal, b.code, b.wide = b.pal[:0], b.code[:0], b.wide[:0]
	b.overflow = false
	clear(b.slots[:])
}

// reserve makes room for n more edges without reallocating (see reserve).
func (b *probBuf) reserve(n int) {
	if b.overflow {
		b.wide = reserve(b.wide, n)
	} else {
		b.code = reserve(b.code, n)
	}
}

// reserve returns buf with room for n more elements. A full buffer
// doubles, so the allocations of a buffer reused across fragments sum to
// at most about twice its final capacity (append's growth for large
// slices, 1.25x, sums to about five times).
func reserve[T any](buf []T, n int) []T {
	if len(buf)+n <= cap(buf) {
		return buf
	}
	grown := make([]T, len(buf), max(2*cap(buf), len(buf)+n, 1<<10))
	copy(grown, buf)
	return grown
}

// add appends the probability of the next edge.
func (b *probBuf) add(p float64) {
	if b.overflow {
		b.wide = append(b.wide, p)
		return
	}
	bits := math.Float64bits(p)
	for h := bits * 0x9e3779b97f4a7c15 >> (64 - 9); ; h = (h + 1) & (2*maxPalette - 1) {
		s := b.slots[h]
		if s == 0 {
			if len(b.pal) == maxPalette {
				b.spill()
				b.wide = append(b.wide, p)
				return
			}
			b.pal = append(b.pal, p)
			b.slots[h] = uint16(len(b.pal))
			b.code = append(b.code, uint8(len(b.pal)-1))
			return
		}
		if math.Float64bits(b.pal[s-1]) == bits {
			b.code = append(b.code, uint8(s-1))
			return
		}
	}
}

// spill decodes the fragment's codes into plain values.
func (b *probBuf) spill() {
	for _, c := range b.code {
		b.wide = append(b.wide, b.pal[c])
	}
	b.overflow = true
}

// view returns the buffer's contents without copying: a coded array over
// the unsorted local palette, or a plain one after an overflow.
func (b *probBuf) view() Probs {
	if b.overflow {
		return Probs{wide: b.wide}
	}
	return Probs{pal: b.pal, code: b.code}
}

// frag returns an exact-size copy of the buffer's contents.
func (b *probBuf) frag() Probs {
	if b.overflow {
		return Probs{wide: slices.Clone(b.wide)}
	}
	return Probs{pal: slices.Clone(b.pal), code: slices.Clone(b.code)}
}

// unionPalette returns the sorted union of the fragments' palettes. ok is
// false when a fragment is plain or the union exceeds maxPalette values:
// the merged array is then plain too.
func unionPalette(frags []Probs) (pal []float64, ok bool) {
	for _, f := range frags {
		if f.wide != nil {
			return nil, false
		}
		pal = append(pal, f.pal...)
	}
	slices.SortFunc(pal, palCmp)
	pal = slices.CompactFunc(pal, func(a, b float64) bool { return palCmp(a, b) == 0 })
	if len(pal) > maxPalette {
		return nil, false
	}
	return slices.Clip(pal), true
}

// newProbs allocates the merged array of edges edges: coded over pal when
// ok, plain otherwise.
func newProbs(pal []float64, ok bool, edges int64) Probs {
	if !ok {
		return Probs{wide: make([]float64, edges)}
	}
	return Probs{pal: pal, code: make([]uint8, edges)}
}

// remapTo returns the table taking each code of the coded fragment f to
// the index of its value in pal, the merged palette that contains it.
func remapTo(pal []float64, f Probs) (m [maxPalette]uint8) {
	if f.wide != nil || pal == nil {
		return m
	}
	for c, v := range f.pal {
		i, _ := slices.BinarySearchFunc(pal, v, palCmp)
		m[c] = uint8(i)
	}
	return m
}

// copyRows writes the edges [from, to) of the fragment src to the edges
// starting at at, remapping codes through m (remapTo of the merged
// palette). A plain fragment only ever merges into a plain array, since
// its alphabet alone overflows a palette.
func (p Probs) copyRows(at int64, src Probs, from, to int64, m *[maxPalette]uint8) {
	if p.wide != nil {
		for e := from; e < to; e++ {
			p.wide[at] = src.At(e)
			at++
		}
		return
	}
	dst := p.code[at : at+to-from]
	for i, c := range src.code[from:to] {
		dst[i] = m[c]
	}
}
