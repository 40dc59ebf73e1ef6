package dijkstra

import (
	"math/rand"
	"testing"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

func mustNew(t *testing.T, n, k int) *Algorithm {
	t.Helper()
	a, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	if _, err := New(2, 3); err == nil {
		t.Fatal("n=2 accepted")
	}
	if _, err := New(3, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	a := mustNew(t, 4, 4)
	if a.StateCount(0) != 4 || a.Graph().N() != 4 {
		t.Fatal("accessors wrong")
	}
	if err := protocol.Validate(a, 0); err != nil {
		t.Fatal(err)
	}
}

// privileged returns the privileged processes of cfg, ascending.
func privileged(a *Algorithm, cfg protocol.Configuration) []int {
	var out []int
	for p := range cfg {
		if a.Privileged(cfg, p) {
			out = append(out, p)
		}
	}
	return out
}

func TestPrivileges(t *testing.T) {
	a := mustNew(t, 4, 4)
	// All equal: only the root is privileged.
	cfg := protocol.Configuration{2, 2, 2, 2}
	priv := privileged(a, cfg)
	if len(priv) != 1 || priv[0] != 0 {
		t.Fatalf("privileged = %v, want [0]", priv)
	}
	if !a.Legitimate(cfg) {
		t.Fatal("uniform configuration must be legitimate")
	}
	// Root not privileged when S0 != S3.
	cfg = protocol.Configuration{1, 1, 1, 2}
	priv = privileged(a, cfg)
	if len(priv) != 1 || priv[0] != 3 {
		t.Fatalf("privileged = %v, want [3]", priv)
	}
}

func TestLegitimateCirculation(t *testing.T) {
	// From a legitimate configuration the privilege circulates: firing the
	// unique privileged process passes the privilege onward forever.
	a := mustNew(t, 5, 5)
	cfg := protocol.Configuration{3, 3, 3, 3, 3}
	holds := make([]int, 5)
	for step := 0; step < 25; step++ {
		priv := privileged(a, cfg)
		if len(priv) != 1 {
			t.Fatalf("step %d: %d privileges", step, len(priv))
		}
		holds[priv[0]]++
		cfg = protocol.Step(a, cfg, priv, nil)
	}
	for p, c := range holds {
		if c != 5 {
			t.Fatalf("process %d held the privilege %d times in 25 steps, want 5", p, c)
		}
	}
}

func TestConvergenceFromArbitraryUnderRoundRobin(t *testing.T) {
	// Self-stabilization in action: every initial configuration converges
	// under a round-robin central scheduler within a bounded number of
	// steps.
	a := mustNew(t, 4, 4)
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := make(protocol.Configuration, 4)
	for idx := int64(0); idx < enc.Total(); idx++ {
		cfg = enc.Decode(idx, cfg)
		state := cfg.Clone()
		sched := scheduler.NewRoundRobin()
		converged := false
		for step := 0; step < 200; step++ {
			if a.Legitimate(state) {
				converged = true
				break
			}
			enabled := protocol.EnabledProcesses(a, state)
			state = protocol.Step(a, state, sched.Select(step, state, enabled, nil), nil)
		}
		if !converged {
			t.Fatalf("initial %v did not converge", cfg)
		}
	}
}

func TestAtLeastOnePrivilegeAlways(t *testing.T) {
	// The K-state ring never deadlocks: some process is always enabled.
	a := mustNew(t, 4, 3)
	enc, err := protocol.NewEncoder(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := make(protocol.Configuration, 4)
	for idx := int64(0); idx < enc.Total(); idx++ {
		cfg = enc.Decode(idx, cfg)
		if protocol.IsTerminal(a, cfg) {
			t.Fatalf("configuration %v is terminal", cfg)
		}
	}
}

func TestClosureUnderDistributedSteps(t *testing.T) {
	// Random distributed steps from legitimate configurations stay
	// legitimate.
	a := mustNew(t, 5, 5)
	rng := rand.New(rand.NewSource(17))
	sched := scheduler.NewDistributedRandomized()
	cfg := protocol.Configuration{0, 0, 0, 0, 0}
	for step := 0; step < 500; step++ {
		if !a.Legitimate(cfg) {
			t.Fatalf("step %d: closure violated at %v", step, cfg)
		}
		enabled := protocol.EnabledProcesses(a, cfg)
		cfg = protocol.Step(a, cfg, sched.Select(step, cfg, enabled, rng), rng)
	}
}

func TestNameAndActionName(t *testing.T) {
	a := mustNew(t, 3, 4)
	if a.Name() != "dijkstra(n=3,k=4)" {
		t.Fatalf("Name = %q", a.Name())
	}
	if a.ActionName(ActionMove) == "" {
		t.Fatal("empty action name")
	}
}
