package tokenring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

func TestMN(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 2}, {2, 3}, {3, 2}, {4, 3}, {5, 2}, {6, 4}, {7, 2}, {8, 3},
		{9, 2}, {10, 3}, {12, 5}, {24, 5}, {36, 5}, {60, 7}, {120, 7},
		{720, 7}, {840, 9}, {2520, 11},
	}
	for _, tc := range tests {
		if got := MN(tc.n); got != tc.want {
			t.Errorf("MN(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestMNProperties(t *testing.T) {
	f := func(raw uint16) bool {
		n := 1 + int(raw%5000)
		m := MN(n)
		if n%m == 0 {
			return false // m must not divide n
		}
		for k := 2; k < m; k++ {
			if n%k != 0 {
				return false // everything below m must divide n
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(2); err == nil {
		t.Fatal("New(2) should fail")
	}
	if _, err := NewWithModulus(6, 1); err == nil {
		t.Fatal("modulus 1 should fail")
	}
	a, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Modulus() != 4 {
		t.Fatalf("Modulus = %d, want MN(6) = 4", a.Modulus())
	}
	if a.Graph().N() != 6 {
		t.Fatalf("graph size = %d", a.Graph().N())
	}
	if err := protocol.Validate(a, 0); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestPredSucc(t *testing.T) {
	a, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Pred(0) != 4 || a.Pred(3) != 2 {
		t.Fatal("ring orientation broken")
	}
	for p := 0; p < 5; p++ {
		if a.Pred((p+1)%5) != p {
			t.Fatalf("%d is not the predecessor of its successor", p)
		}
	}
}

func TestLemma4AtLeastOneToken(t *testing.T) {
	// Lemma 4: every configuration has at least one token because mN does
	// not divide N. Exhaustive over all 4^6 = 4096 configurations of the
	// N=6 instance.
	a, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := make(protocol.Configuration, 6)
	for idx := int64(0); idx < enc.Total(); idx++ {
		cfg = enc.Decode(idx, cfg)
		if len(a.TokenHolders(cfg)) == 0 {
			t.Fatalf("configuration %v has zero tokens", cfg)
		}
	}
}

func TestLemma4BreaksWhenModulusDivides(t *testing.T) {
	// Ablation: with m=3 dividing N=6, the chain configuration is
	// token-free, demonstrating why mN matters.
	a, err := NewWithModulus(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.LegitimateWithTokenAt(0)
	if got := len(a.TokenHolders(cfg)); got != 0 {
		t.Fatalf("expected token-free configuration with dividing modulus, got %d tokens", got)
	}
	if !protocol.IsTerminal(a, cfg) {
		t.Fatal("token-free configuration must be terminal (deadlock)")
	}
}

func TestLegitimateWithTokenAt(t *testing.T) {
	for _, n := range []int{3, 4, 5, 6, 7, 9} {
		a, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < n; p++ {
			cfg := a.LegitimateWithTokenAt(p)
			if !a.Legitimate(cfg) {
				t.Fatalf("n=%d: %v not legitimate", n, cfg)
			}
			holders := a.TokenHolders(cfg)
			if len(holders) != 1 || holders[0] != p {
				t.Fatalf("n=%d: token holders %v, want [%d]", n, holders, p)
			}
		}
	}
}

func TestStrongClosureAndCirculation(t *testing.T) {
	// Lemma 6: from a legitimate configuration the unique enabled process
	// is the token holder, and firing it moves the token to its successor.
	a, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.LegitimateWithTokenAt(2)
	for step := 0; step < 24; step++ {
		holders := a.TokenHolders(cfg)
		if len(holders) != 1 {
			t.Fatalf("step %d: %d tokens", step, len(holders))
		}
		holder := holders[0]
		enabled := protocol.EnabledProcesses(a, cfg)
		if len(enabled) != 1 || enabled[0] != holder {
			t.Fatalf("step %d: enabled = %v, holder = %d", step, enabled, holder)
		}
		cfg = protocol.Step(a, cfg, enabled, nil)
		next := a.TokenHolders(cfg)
		if succ := (holder + 1) % len(cfg); len(next) != 1 || next[0] != succ {
			t.Fatalf("step %d: token moved %d -> %v, want successor %d",
				step, holder, next, succ)
		}
	}
}

func TestEveryProcessHoldsTokenInfinitelyOften(t *testing.T) {
	// The token circulation specification: over 3 full laps every process
	// holds the token at least 3 times.
	a, err := New(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.LegitimateWithTokenAt(0)
	counts := make([]int, 5)
	for step := 0; step < 15; step++ {
		holder := a.TokenHolders(cfg)[0]
		counts[holder]++
		cfg = protocol.Step(a, cfg, []int{holder}, nil)
	}
	for p, c := range counts {
		if c != 3 {
			t.Fatalf("process %d held the token %d times in 15 steps, want 3", p, c)
		}
	}
}

func TestFigure1Execution(t *testing.T) {
	// Figure 1: ring N=6, mN=4, three panels. From a legitimate
	// configuration the single token (asterisk) moves one position per
	// step. We verify the exact semantics: the firing process adopts
	// dt_pred+1 and the token appears at its successor.
	a, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := a.LegitimateWithTokenAt(1)
	if got := a.TokenHolders(cfg); len(got) != 1 || got[0] != 1 {
		t.Fatalf("panel (i): token at %v, want [1]", got)
	}
	cfg = protocol.Step(a, cfg, []int{1}, nil)
	if got := a.TokenHolders(cfg); len(got) != 1 || got[0] != 2 {
		t.Fatalf("panel (ii): token at %v, want [2]", got)
	}
	if cfg[1] != (cfg[0]+1)%4 {
		t.Fatalf("panel (ii): dt_1 = %d, want dt_0+1 = %d", cfg[1], (cfg[0]+1)%4)
	}
	cfg = protocol.Step(a, cfg, []int{2}, nil)
	if got := a.TokenHolders(cfg); len(got) != 1 || got[0] != 3 {
		t.Fatalf("panel (iii): token at %v, want [3]", got)
	}
}

func TestTheorem6AlternatingExecutionNeverConverges(t *testing.T) {
	// Theorem 6's counterexample: tokens at p0 and p3 on a 6-ring moved
	// alternately by a central scheduler. The execution is strongly fair
	// yet never reaches a single-token configuration.
	a, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	// Build a two-token configuration: tokens at 0 and 3.
	cfg := protocol.Configuration{0, 1, 2, 0, 1, 2}
	holders := a.TokenHolders(cfg)
	if len(holders) != 2 || holders[0] != 0 || holders[1] != 3 {
		t.Fatalf("setup: holders = %v, want [0 3]", holders)
	}
	var records []scheduler.StepRecord
	turn := 0 // alternate: move the lower-indexed token, then the higher
	for step := 0; step < 120; step++ {
		hs := a.TokenHolders(cfg)
		if len(hs) != 2 {
			t.Fatalf("step %d: %d tokens, want the two tokens to persist", step, len(hs))
		}
		chosen := []int{hs[turn%2]}
		records = append(records, scheduler.StepRecord{Enabled: hs, Chosen: chosen})
		cfg = protocol.Step(a, cfg, chosen, nil)
		turn++
	}
	if a.Legitimate(cfg) {
		t.Fatal("alternating execution unexpectedly converged")
	}
	// The 120-step window covers full laps of both tokens: repeated
	// forever it is strongly fair.
	if !scheduler.StronglyFairCycle(records) {
		t.Fatal("alternating execution should be strongly fair")
	}
}

func TestPossibleConvergenceByGreedyMerging(t *testing.T) {
	// Lemma 5's witness strategy: repeatedly move only the token whose
	// forward distance to the next token is minimal; tokens merge and a
	// single token remains. Checked from many random configurations.
	a, err := New(7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		cfg := protocol.RandomConfiguration(a, rng)
		for steps := 0; steps < 500 && !a.Legitimate(cfg); steps++ {
			holders := a.TokenHolders(cfg)
			// Pick the holder with minimal forward distance to the next
			// holder: moving it can merge tokens, never split them.
			best, bestDist := holders[0], a.Graph().N()+1
			for i, p := range holders {
				next := holders[(i+1)%len(holders)]
				d := (next - p + a.Graph().N()) % a.Graph().N()
				if d > 0 && d < bestDist {
					best, bestDist = p, d
				}
			}
			cfg = protocol.Step(a, cfg, []int{best}, nil)
		}
		if !a.Legitimate(cfg) {
			t.Fatalf("trial %d: greedy strategy failed to converge", trial)
		}
	}
}

func TestTokenCountNeverIncreases(t *testing.T) {
	// Moving any single token can only preserve or reduce the token count.
	a, err := New(6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 300; trial++ {
		cfg := protocol.RandomConfiguration(a, rng)
		before := len(a.TokenHolders(cfg))
		holders := a.TokenHolders(cfg)
		p := holders[rng.Intn(len(holders))]
		next := protocol.Step(a, cfg, []int{p}, nil)
		after := len(a.TokenHolders(next))
		if after > before {
			t.Fatalf("token count increased %d -> %d from %v firing %d", before, after, cfg, p)
		}
	}
}

func TestActionName(t *testing.T) {
	a, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if a.ActionName(ActionPass) == "" {
		t.Fatal("empty action name")
	}
	if a.Name() != "tokenring(n=3,m=2)" {
		t.Fatalf("Name = %q", a.Name())
	}
}
