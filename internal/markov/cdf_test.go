package markov

import (
	"math"
	"testing"

	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/transformer"
)

func TestHittingTimeCDFGeometric(t *testing.T) {
	// Fair-coin escape: P(T <= t) = 1 - (1/2)^t.
	c := chainOf(t, [][]arc{{{0, 0.5}, {1, 0.5}}, nil})
	cdf, err := c.HittingTimeCDF([]bool{false, true}, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt <= 20; tt++ {
		want := 1 - math.Pow(0.5, float64(tt))
		if math.Abs(cdf[tt]-want) > 1e-12 {
			t.Fatalf("cdf[%d] = %g, want %g", tt, cdf[tt], want)
		}
	}
}

func TestHittingTimeCDFFromTarget(t *testing.T) {
	c := chainOf(t, make([][]arc, 2))
	cdf, err := c.HittingTimeCDF([]bool{true, false}, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cdf {
		if p != 1 {
			t.Fatalf("cdf from target = %v, want all ones", cdf)
		}
	}
}

func TestHittingTimeCDFTrapCapsBelowOne(t *testing.T) {
	// Half the mass falls into an absorbing trap: CDF converges to 1/2.
	c := chainOf(t, [][]arc{{{1, 0.5}, {2, 0.5}}, nil, nil})
	cdf, err := c.HittingTimeCDF([]bool{false, true, false}, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cdf[30]-0.5) > 1e-12 {
		t.Fatalf("cdf limit = %g, want 0.5", cdf[30])
	}
}

func TestHittingTimeCDFMonotone(t *testing.T) {
	// Transformed syncpair under the synchronous scheduler from (F,F).
	sp, err := syncpair.New()
	if err != nil {
		t.Fatal(err)
	}
	chain, target, enc := mustChain(t, transformer.New(sp), scheduler.SynchronousPolicy)
	from := int(enc.Encode(protocol.Configuration{0, 0}))
	cdf, err := chain.HittingTimeCDF(target, from, 200)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1]-1e-15 {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	if cdf[200] < 0.999999 {
		t.Fatalf("CDF should approach 1, got %g", cdf[200])
	}
	// Mean from the CDF (sum of survival) must match HittingTimes: 8.
	mean := 0.0
	for i := 0; i+1 < len(cdf); i++ {
		mean += 1 - cdf[i]
	}
	if math.Abs(mean-8) > 1e-4 {
		t.Fatalf("CDF-derived mean = %g, want 8", mean)
	}
}

func TestCDFQuantile(t *testing.T) {
	cdf := []float64{0, 0.3, 0.6, 0.9, 0.99}
	if got := CDFQuantile(cdf, 0.5); got != 2 {
		t.Fatalf("median index = %d, want 2", got)
	}
	if got := CDFQuantile(cdf, 0.999); got != -1 {
		t.Fatalf("unreachable quantile = %d, want -1", got)
	}
	// q=0 is the infimum of the support, not the vacuous t=0: the first
	// step with positive hitting probability.
	if got := CDFQuantile(cdf, 0); got != 1 {
		t.Fatalf("zero quantile = %d, want 1 (first positive mass)", got)
	}
	if got := CDFQuantile(cdf, -0.5); got != 1 {
		t.Fatalf("negative quantile = %d, want 1", got)
	}
	if got := CDFQuantile([]float64{0, 0, 0}, 0); got != -1 {
		t.Fatalf("zero quantile of zero CDF = %d, want -1", got)
	}
	if got := CDFQuantile(cdf, math.NaN()); got != -1 {
		t.Fatalf("NaN quantile = %d, want -1", got)
	}
	// A CDF with immediate mass (start inside the target) still yields 0.
	if got := CDFQuantile([]float64{1, 1}, 0); got != 0 {
		t.Fatalf("zero quantile of immediate-hit CDF = %d, want 0", got)
	}
}

func TestHittingTimeCDFValidation(t *testing.T) {
	c := chainOf(t, make([][]arc, 2))
	if _, err := c.HittingTimeCDF([]bool{true}, 0, 5); err == nil {
		t.Fatal("bad target length accepted")
	}
	if _, err := c.HittingTimeCDF([]bool{true, false}, 9, 5); err == nil {
		t.Fatal("bad start accepted")
	}
	if _, err := c.HittingTimeCDF([]bool{true, false}, 0, -1); err == nil {
		t.Fatal("negative horizon accepted")
	}
}
