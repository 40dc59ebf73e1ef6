package statespace

// BuildReference is the seed-era exploration strategy kept as an oracle:
// single-threaded, materializing every successor configuration through
// protocol.StepOutcomes per activation subset and deduplicating through a
// map — exactly what the checker's and the Markov analysis's explorers
// each did before they shared one engine. Parity tests compare Build against it;
// the exploration benchmarks use it as the baseline the engine is measured
// against. It produces the same Space (same rows, same probability sums).

import (
	"fmt"
	"math"
	"slices"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

// BuildReference explores like Build but with the pre-engine two-pass-era
// code path. maxStates caps the space (0 means DefaultMaxStates).
func BuildReference(a protocol.Algorithm, pol scheduler.Policy, maxStates int64) (*Space, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	enc, err := protocol.NewEncoder(a, maxStates)
	if err != nil {
		return nil, fmt.Errorf("statespace: %w", err)
	}
	if enc.Total() > math.MaxInt32 {
		return nil, fmt.Errorf("statespace: %d configurations exceed the int32 index range", enc.Total())
	}
	total := int(enc.Total())
	sp := &Space{
		Alg:     a,
		Pol:     pol,
		Enc:     enc,
		States:  total,
		Legit:   make([]bool, total),
		Workers: 1,
		off:     make([]int64, total+1),
	}
	cfg := make(protocol.Configuration, a.Graph().N())
	var probs []float64
	sums := map[int64]float64{}
	var targets []int64
	for s := 0; s < total; s++ {
		sp.off[s] = int64(len(sp.succ))
		cfg = enc.Decode(int64(s), cfg)
		sp.Legit[s] = a.Legitimate(cfg)
		enabled := protocol.EnabledProcesses(a, cfg)
		if len(enabled) == 0 {
			continue
		}
		masks := pol.SubsetMasks(len(enabled))
		w := 1 / float64(len(masks))
		clear(sums)
		targets = targets[:0]
		for _, m := range masks {
			for _, out := range protocol.StepOutcomes(a, cfg, scheduler.Subset(m, enabled)) {
				to := enc.Encode(out.Config)
				if _, ok := sums[to]; !ok {
					targets = append(targets, to)
				}
				sums[to] += w * out.Prob // in enumeration order
			}
		}
		slices.Sort(targets)
		for _, to := range targets {
			sp.succ = append(sp.succ, int32(to))
			probs = append(probs, sums[to])
		}
	}
	sp.off[total] = int64(len(sp.succ))
	sp.probs = packProbs(probs)
	return sp, nil
}
