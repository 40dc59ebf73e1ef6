package markov

import (
	"fmt"
	"math"
)

// HittingTimeCDF returns the distribution of the first hitting time T of
// the target set starting from state `from`: out[t] = P(T <= t) for
// t = 0..maxSteps. It is computed by propagating the probability mass of
// the non-target states step by step, so the cost is
// O(maxSteps × transitions). The CDF may converge to less than 1 when the
// target is not reached almost surely.
func (c *Chain) HittingTimeCDF(target []bool, from, maxSteps int) ([]float64, error) {
	n := c.n
	if from < 0 || from >= n {
		return nil, fmt.Errorf("markov: start state %d out of range [0,%d)", from, n)
	}
	if len(target) != n {
		return nil, fmt.Errorf("markov: target length %d != states %d", len(target), n)
	}
	if maxSteps < 0 {
		return nil, fmt.Errorf("markov: negative step bound %d", maxSteps)
	}
	out := make([]float64, maxSteps+1)
	if target[from] {
		for t := range out {
			out[t] = 1
		}
		return out, nil
	}
	prob := c.prob
	mass := make([]float64, n)
	next := make([]float64, n)
	mass[from] = 1
	absorbed := 0.0
	for t := 1; t <= maxSteps; t++ {
		for i := range next {
			next[i] = 0
		}
		for s, m := range mass {
			if m == 0 {
				continue
			}
			lo, hi := c.off[s], c.off[s+1]
			if lo == hi {
				// Absorbing non-target state: the mass stays forever.
				next[s] += m
				continue
			}
			for i := lo; i < hi; i++ {
				if t := c.succ[i]; target[t] {
					absorbed += m * prob.At(i)
				} else {
					next[t] += m * prob.At(i)
				}
			}
		}
		mass, next = next, mass
		out[t] = absorbed
	}
	return out, nil
}

// CDFQuantile returns, for q > 0, the smallest t with cdf[t] >= q — the
// generalized inverse of the hitting-time distribution. For q <= 0 the
// literal inverse is vacuous (every CDF value is >= 0, so t=0 would
// always win regardless of the distribution); instead the quantile of
// order zero is defined as the infimum of the support: the smallest t
// with cdf[t] > 0, i.e. the first step by which hitting is possible at
// all. Returns -1 when the requested level is never reached within the
// horizon (including a NaN q, which no comparison satisfies, and a q<=0
// against an identically-zero CDF).
func CDFQuantile(cdf []float64, q float64) int {
	if math.IsNaN(q) {
		return -1
	}
	if q <= 0 {
		for t, p := range cdf {
			if p > 0 {
				return t
			}
		}
		return -1
	}
	for t, p := range cdf {
		if p >= q {
			return t
		}
	}
	return -1
}
