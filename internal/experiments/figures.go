package experiments

import (
	"context"
	"fmt"
	"io"

	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/spec"
	"weakstab/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "E1",
		Title: "Figure 1: token circulation from a legitimate configuration",
		PaperClaim: "On the 6-ring with mN=4, from a legitimate configuration the unique " +
			"token holder passes the token to its successor in each step.",
		Run: runE1,
	})
	register(Experiment{
		ID:    "E2",
		Title: "Figure 2: possible convergence of Algorithm 2 on the 8-process tree",
		PaperClaim: "The four drawn steps lead from configuration (i) to the terminal " +
			"configuration (v) where P5 is the unique leader; the enabled-action " +
			"annotations of every panel match.",
		Run: runE2,
	})
	register(Experiment{
		ID:    "E3",
		Title: "Figure 3: synchronous livelock of Algorithm 2 on the 4-chain",
		PaperClaim: "From configuration (i) the synchronous execution oscillates with " +
			"period 2 and never converges.",
		Run: runE3,
	})
}

func runE1(ctx context.Context, w io.Writer, opt Options) error {
	a, err := tokenring.New(6)
	if err != nil {
		return err
	}
	if a.Modulus() != 4 {
		return fmt.Errorf("mN(6) = %d, paper says 4", a.Modulus())
	}
	init := a.LegitimateWithTokenAt(1)
	tr := trace.RecordScript(a, init, [][]int{{1}, {2}}, nil)
	trace.RenderRingPanels(w, tr, func(cfg protocol.Configuration, p int) bool {
		return a.HasToken(cfg, p)
	})
	configs := tr.Configurations()
	if len(configs) != 3 {
		return fmt.Errorf("recorded %d panels, want 3", len(configs))
	}
	for i, cfg := range configs {
		holders := a.TokenHolders(cfg)
		if len(holders) != 1 {
			return fmt.Errorf("panel %d: %d tokens, paper draws exactly one", i+1, len(holders))
		}
		if holders[0] != i+1 {
			return fmt.Errorf("panel %d: token at P%d, want P%d (successor passing)",
				i+1, holders[0]+1, i+2)
		}
	}
	// Definition 4 as an execution predicate over the trace.
	circulation := spec.All{
		spec.MutualExclusion{Holders: a.TokenHolders},
		spec.TokenCirculation{Holders: a.TokenHolders, MaxStarvation: 6},
		spec.ConvergenceShape{Legitimate: a.Legitimate, RequireConvergence: true},
	}
	if err := circulation.Check(tr); err != nil {
		return fmt.Errorf("token circulation specification: %w", err)
	}
	fmt.Fprintln(w, "verified: single token, passed to the successor in each panel (Definition 4 spec holds)")
	return nil
}

// figure2Script returns the Figure 2 tree, its initial configuration and
// the paper's four activation steps.
func figure2Script() (*leadertree.Algorithm, protocol.Configuration, [][]int, error) {
	g := graph.Figure2Tree()
	a, err := leadertree.New(g)
	if err != nil {
		return nil, nil, nil, err
	}
	parents := []int{1, 0, 1, 4, 6, 7, 4, 5} // P1→P2 P2→P1 P3→P2 P4→P5 P5→P7 P6→P8 P7→P5 P8→P6
	init := make(protocol.Configuration, 8)
	for p, q := range parents {
		i, ok := g.LocalIndex(p, q)
		if !ok {
			return nil, nil, nil, fmt.Errorf("figure 2 tree: %d is not a neighbor of %d", q, p)
		}
		init[p] = i
	}
	script := [][]int{{5, 7}, {1, 7}, {2, 4}, {1, 4}}
	return a, init, script, nil
}

func runE2(ctx context.Context, w io.Writer, opt Options) error {
	a, init, script, err := figure2Script()
	if err != nil {
		return err
	}
	tr := trace.RecordScript(a, init, script, nil)
	trace.RenderLabeledPanels(w, tr, func(cfg protocol.Configuration, p int) string {
		if par := a.Parent(cfg, p); par >= 0 {
			return fmt.Sprintf("→P%d", par+1)
		}
		return "⊥"
	})
	if len(tr.Steps) != 4 {
		return fmt.Errorf("recorded %d steps, want the paper's 4", len(tr.Steps))
	}
	final := tr.Final()
	if !protocol.IsTerminal(a, final) {
		return fmt.Errorf("panel (v) is not terminal")
	}
	if !a.Legitimate(final) {
		return fmt.Errorf("panel (v) is not legitimate")
	}
	leaders := a.Leaders(final)
	if len(leaders) != 1 || leaders[0] != 4 {
		return fmt.Errorf("panel (v) leader = %v, paper says P5", leaders)
	}
	// The narrative observations: (ii) P8 unique leader without children,
	// (iii) P2 unique leader.
	ii := tr.Steps[0].After
	if ls := a.Leaders(ii); len(ls) != 1 || ls[0] != 7 || len(a.Children(ii, 7)) != 0 {
		return fmt.Errorf("panel (ii): want P8 the unique childless leader")
	}
	iii := tr.Steps[1].After
	if ls := a.Leaders(iii); len(ls) != 1 || ls[0] != 1 {
		return fmt.Errorf("panel (iii): want P2 the unique leader")
	}
	fmt.Fprintln(w, "verified: four steps reach the terminal configuration with P5 elected")
	return nil
}

func runE3(ctx context.Context, w io.Writer, opt Options) error {
	g, err := graph.Chain(4)
	if err != nil {
		return err
	}
	a, err := leadertree.New(g)
	if err != nil {
		return err
	}
	// (i): two mutual pairs P1<->P2, P3<->P4.
	init := protocol.Configuration{0, 0, 1, 0}
	tr := trace.Record(a, scheduler.NewSynchronous(), init, nil, 4)
	trace.RenderLabeledPanels(w, tr, func(cfg protocol.Configuration, p int) string {
		if par := a.Parent(cfg, p); par >= 0 {
			return fmt.Sprintf("→P%d", par+1)
		}
		return "⊥"
	})
	configs := tr.Configurations()
	if len(configs) < 5 {
		return fmt.Errorf("synchronous execution halted after %d steps; the paper's livelock never halts", len(configs)-1)
	}
	if !configs[0].Equal(configs[2]) || !configs[1].Equal(configs[3]) {
		return fmt.Errorf("execution is not a period-2 oscillation")
	}
	for i, cfg := range configs {
		if a.Legitimate(cfg) {
			return fmt.Errorf("panel %d is legitimate; the livelock must avoid L", i+1)
		}
	}
	fmt.Fprintln(w, "verified: period-2 livelock, no panel legitimate")
	return nil
}
