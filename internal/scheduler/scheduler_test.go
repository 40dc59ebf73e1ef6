package scheduler

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"weakstab/internal/protocol"
)

func TestSynchronousSelectsAll(t *testing.T) {
	s := NewSynchronous()
	enabled := []int{1, 3, 4}
	got := s.Select(0, protocol.Configuration{0, 0, 0, 0, 0}, enabled, nil)
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Select = %v, want [1 3 4]", got)
	}
	got[0] = 99
	if enabled[0] == 99 {
		t.Fatal("Select returned the caller's slice")
	}
}

func TestCentralRandomizedUniform(t *testing.T) {
	s := NewCentralRandomized()
	rng := rand.New(rand.NewSource(5))
	counts := map[int]int{}
	enabled := []int{2, 5, 7}
	const trials = 9000
	for i := 0; i < trials; i++ {
		got := s.Select(i, nil, enabled, rng)
		if len(got) != 1 {
			t.Fatalf("central scheduler chose %d processes", len(got))
		}
		counts[got[0]]++
	}
	for _, p := range enabled {
		frac := float64(counts[p]) / trials
		if frac < 0.30 || frac > 0.37 {
			t.Fatalf("process %d chosen with frequency %.3f, want ~1/3", p, frac)
		}
	}
}

func TestDistributedRandomizedNonEmptyAndUniform(t *testing.T) {
	s := NewDistributedRandomized()
	rng := rand.New(rand.NewSource(6))
	enabled := []int{0, 1, 2}
	counts := map[string]int{}
	const trials = 14000
	for i := 0; i < trials; i++ {
		got := s.Select(i, nil, enabled, rng)
		if len(got) == 0 {
			t.Fatal("distributed scheduler chose empty subset")
		}
		key := ""
		for _, p := range got {
			key += string(rune('0' + p))
		}
		counts[key]++
	}
	if len(counts) != 7 {
		t.Fatalf("observed %d distinct subsets, want 7", len(counts))
	}
	for key, c := range counts {
		frac := float64(c) / trials
		if frac < 0.11 || frac > 0.18 {
			t.Fatalf("subset %q frequency %.3f, want ~1/7", key, frac)
		}
	}
}

func TestDistributedRandomizedSingleton(t *testing.T) {
	s := NewDistributedRandomized()
	rng := rand.New(rand.NewSource(1))
	got := s.Select(0, nil, []int{4}, rng)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("Select = %v, want [4]", got)
	}
}

func TestRoundRobinCyclesFairly(t *testing.T) {
	s := NewRoundRobin()
	cfg := make(protocol.Configuration, 4)
	enabled := []int{0, 1, 2, 3}
	var order []int
	for i := 0; i < 8; i++ {
		got := s.Select(i, cfg, enabled, nil)
		if len(got) != 1 {
			t.Fatalf("round robin chose %d processes", len(got))
		}
		order = append(order, got[0])
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRoundRobinSkipsDisabled(t *testing.T) {
	s := NewRoundRobin()
	cfg := make(protocol.Configuration, 5)
	got := s.Select(0, cfg, []int{2, 4}, nil)
	if got[0] != 2 {
		t.Fatalf("first pick = %d, want 2", got[0])
	}
	got = s.Select(1, cfg, []int{1, 4}, nil)
	if got[0] != 4 {
		t.Fatalf("second pick = %d, want 4 (cursor moved past 2)", got[0])
	}
	got = s.Select(2, cfg, []int{1, 3}, nil)
	if got[0] != 1 {
		t.Fatalf("third pick = %d, want 1 (wrap around)", got[0])
	}
}

func TestLexMin(t *testing.T) {
	s := NewLexMin()
	if got := s.Select(0, nil, []int{3, 5, 6}, nil); got[0] != 3 || len(got) != 1 {
		t.Fatalf("Select = %v, want [3]", got)
	}
}

func TestScriptedLoops(t *testing.T) {
	s := NewScripted("alt", [][]int{{0}, {3}}, true)
	enabled := []int{0, 3}
	if got := s.Select(0, nil, enabled, nil); got[0] != 0 {
		t.Fatalf("step 0 = %v", got)
	}
	if got := s.Select(1, nil, enabled, nil); got[0] != 3 {
		t.Fatalf("step 1 = %v", got)
	}
	if got := s.Select(2, nil, enabled, nil); got[0] != 0 {
		t.Fatalf("step 2 (looped) = %v", got)
	}
	if s.Name() != "alt" {
		t.Fatalf("Name = %q", s.Name())
	}
}

func TestScriptedFallsBackWhenSubsetDisabled(t *testing.T) {
	s := NewScripted("", [][]int{{7}}, true)
	got := s.Select(0, nil, []int{1, 2}, nil)
	sort.Ints(got)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fallback = %v, want all enabled [1 2]", got)
	}
	if s.Name() != "scripted" {
		t.Fatalf("default Name = %q", s.Name())
	}
}

func TestScriptedNonLoopingFallsBackAfterScript(t *testing.T) {
	s := NewScripted("once", [][]int{{1}}, false)
	if got := s.Select(0, nil, []int{1, 2}, nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("step 0 = %v", got)
	}
	got := s.Select(1, nil, []int{1, 2}, nil)
	if len(got) != 2 {
		t.Fatalf("step beyond script = %v, want all enabled", got)
	}
}

func TestFuncScheduler(t *testing.T) {
	f := Func{Label: "pick-last", F: func(_ int, _ protocol.Configuration, enabled []int, _ *rand.Rand) []int {
		return []int{enabled[len(enabled)-1]}
	}}
	if got := f.Select(0, nil, []int{1, 9}, nil); got[0] != 9 {
		t.Fatalf("Select = %v", got)
	}
	if f.Name() != "pick-last" {
		t.Fatalf("Name = %q", f.Name())
	}
	if (Func{}).Name() != "func" {
		t.Fatal("default Func name wrong")
	}
}

// subsets maps pol's masks for enabled to process-id subsets.
func subsets(pol Policy, enabled []int) [][]int {
	var out [][]int
	for _, m := range pol.SubsetMasks(len(enabled)) {
		out = append(out, Subset(m, enabled))
	}
	return out
}

func TestCentralPolicySubsets(t *testing.T) {
	subs := subsets(CentralPolicy, []int{1, 4})
	if len(subs) != 2 || len(subs[0]) != 1 || subs[0][0] != 1 || subs[1][0] != 4 {
		t.Fatalf("subsets = %v", subs)
	}
}

func TestDistributedPolicySubsets(t *testing.T) {
	subs := subsets(DistributedPolicy, []int{0, 1, 2})
	if len(subs) != 7 {
		t.Fatalf("got %d subsets, want 7", len(subs))
	}
	seen := map[string]bool{}
	for _, sub := range subs {
		if len(sub) == 0 {
			t.Fatal("empty subset enumerated")
		}
		key := ""
		for _, p := range sub {
			key += string(rune('0' + p))
		}
		if seen[key] {
			t.Fatalf("duplicate subset %q", key)
		}
		seen[key] = true
	}
}

func TestSynchronousPolicySubsets(t *testing.T) {
	subs := subsets(SynchronousPolicy, []int{2, 3})
	if len(subs) != 1 || len(subs[0]) != 2 {
		t.Fatalf("subsets = %v", subs)
	}
}

func TestStronglyFairCycle(t *testing.T) {
	// Theorem 6 shape: two tokens alternate; both token holders are enabled
	// somewhere in the cycle and both move somewhere in the cycle -> the
	// non-converging execution is strongly fair.
	cycle := []StepRecord{
		{Enabled: []int{0, 3}, Chosen: []int{0}},
		{Enabled: []int{1, 3}, Chosen: []int{3}},
		{Enabled: []int{1, 4}, Chosen: []int{1}},
		{Enabled: []int{2, 4}, Chosen: []int{4}},
		{Enabled: []int{2, 5}, Chosen: []int{2}},
		{Enabled: []int{3, 5}, Chosen: []int{5}},
		{Enabled: []int{3, 0}, Chosen: []int{3}},
		{Enabled: []int{4, 0}, Chosen: []int{0}},
		{Enabled: []int{4, 1}, Chosen: []int{4}},
		{Enabled: []int{5, 1}, Chosen: []int{1}},
		{Enabled: []int{5, 2}, Chosen: []int{5}},
		{Enabled: []int{0, 2}, Chosen: []int{2}},
	}
	if !StronglyFairCycle(cycle) {
		t.Fatal("alternating token cycle should be strongly fair")
	}
}

func TestStronglyFairCycleViolation(t *testing.T) {
	cycle := []StepRecord{
		{Enabled: []int{0, 1}, Chosen: []int{0}},
		{Enabled: []int{0, 1}, Chosen: []int{0}},
	}
	if StronglyFairCycle(cycle) {
		t.Fatal("process 1 enabled forever but never chosen: not strongly fair")
	}
}

func TestWeaklyFairCycle(t *testing.T) {
	// Process 1 enabled in every step but never chosen: weak fairness fails.
	bad := []StepRecord{
		{Enabled: []int{0, 1}, Chosen: []int{0}},
		{Enabled: []int{1, 2}, Chosen: []int{2}},
	}
	if WeaklyFairCycle(bad) {
		t.Fatal("continuously enabled, never chosen process must violate weak fairness")
	}
	// Process 1 is not continuously enabled: weak fairness holds even
	// though 1 is never chosen (this is what makes weak < strong).
	ok := []StepRecord{
		{Enabled: []int{0, 1}, Chosen: []int{0}},
		{Enabled: []int{0}, Chosen: []int{0}},
		{Enabled: []int{0, 1}, Chosen: []int{0}},
	}
	if !WeaklyFairCycle(ok) {
		t.Fatal("intermittently enabled process does not violate weak fairness")
	}
	if !StronglyFairCycle(ok) == false {
		t.Fatal("the same cycle must violate strong fairness")
	}
	if !WeaklyFairCycle(nil) {
		t.Fatal("empty cycle is vacuously weakly fair")
	}
}

// TestSubsetMasksMatchSubsets checks that every policy's masks, mapped
// through Subset, enumerate exactly the expected process-id subsets in
// order: singletons by position (central), every non-empty subset by
// ascending mask (distributed), and the full set (synchronous).
func TestSubsetMasksMatchSubsets(t *testing.T) {
	enabled := []int{2, 5, 7}
	for _, tc := range []struct {
		pol  Policy
		want [][]int
	}{
		{CentralPolicy, [][]int{{2}, {5}, {7}}},
		{DistributedPolicy, [][]int{{2}, {5}, {2, 5}, {7}, {2, 7}, {5, 7}, {2, 5, 7}}},
		{SynchronousPolicy, [][]int{{2, 5, 7}}},
	} {
		got := subsets(tc.pol, enabled)
		if !slices.EqualFunc(got, tc.want, slices.Equal[[]int]) {
			t.Fatalf("%s: subsets = %v, want %v", tc.pol.Name(), got, tc.want)
		}
	}
	if got := Subset(0b1010, []int{3, 4, 8, 9}); !slices.Equal(got, []int{4, 9}) {
		t.Fatalf("Subset(0b1010) = %v, want [4 9]", got)
	}
}
