package trace

import (
	"strings"
	"testing"

	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
)

func mustTokenRing(t *testing.T, n int) *tokenring.Algorithm {
	t.Helper()
	a, err := tokenring.New(n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestRecordFigure1(t *testing.T) {
	// Figure 1: three panels of the legitimate token circulation.
	a := mustTokenRing(t, 6)
	init := a.LegitimateWithTokenAt(1)
	tr := RecordScript(a, init, [][]int{{1}, {2}}, nil)
	if len(tr.Steps) != 2 {
		t.Fatalf("recorded %d steps, want 2", len(tr.Steps))
	}
	configs := tr.Configurations()
	if len(configs) != 3 {
		t.Fatalf("got %d panels, want 3", len(configs))
	}
	for i, cfg := range configs {
		holders := a.TokenHolders(cfg)
		if len(holders) != 1 || holders[0] != i+1 {
			t.Fatalf("panel %d: token at %v, want [%d]", i, holders, i+1)
		}
	}
	if !tr.Final().Equal(configs[2]) {
		t.Fatal("Final disagrees with Configurations")
	}
}

func TestRenderRingPanels(t *testing.T) {
	a := mustTokenRing(t, 6)
	tr := RecordScript(a, a.LegitimateWithTokenAt(1), [][]int{{1}, {2}}, nil)
	var sb strings.Builder
	RenderRingPanels(&sb, tr, func(cfg protocol.Configuration, p int) bool {
		return a.HasToken(cfg, p)
	})
	out := sb.String()
	for _, want := range []string{"(i)", "(ii)", "(iii)", "*"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
	// Exactly one asterisk per panel.
	for i, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if got := strings.Count(line, "*"); got != 1 {
			t.Fatalf("panel %d has %d asterisks, want 1:\n%s", i, got, line)
		}
	}
}

func TestRecordStopsAtTerminal(t *testing.T) {
	g := graph.Figure2Tree()
	a, err := leadertree.New(g)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2's four scripted steps end in the terminal configuration;
	// extra script entries must not add steps.
	init := make(protocol.Configuration, 8)
	parents := []int{1, 0, 1, 4, 6, 7, 4, 5}
	for p, q := range parents {
		i, ok := g.LocalIndex(p, q)
		if !ok {
			t.Fatalf("bad parent %d for %d", q, p)
		}
		init[p] = i
	}
	tr := RecordScript(a, init, [][]int{{5, 7}, {1, 7}, {2, 4}, {1, 4}, {0}, {0}}, nil)
	if len(tr.Steps) != 4 {
		t.Fatalf("recorded %d steps, want 4 (terminal afterwards)", len(tr.Steps))
	}
	if !a.Legitimate(tr.Final()) {
		t.Fatal("final configuration not legitimate")
	}
}

func TestRenderTable(t *testing.T) {
	a := mustTokenRing(t, 4)
	tr := RecordScript(a, a.LegitimateWithTokenAt(0), [][]int{{0}}, nil)
	var sb strings.Builder
	RenderTable(&sb, tr)
	out := sb.String()
	for _, want := range []string{"tokenring(n=4,m=3)", "step", "P1:A(pass-token)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRenderLabeledPanels(t *testing.T) {
	g, err := graph.Chain(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := leadertree.New(g)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3 livelock, two synchronous steps.
	init := protocol.Configuration{0, 0, 1, 0} // 0->1, 1->0, 2->3, 3->2 via local indexes
	tr := Record(a, scheduler.NewSynchronous(), init, nil, 2)
	var sb strings.Builder
	RenderLabeledPanels(&sb, tr, func(cfg protocol.Configuration, p int) string {
		if par := a.Parent(cfg, p); par >= 0 {
			return "→P" + string(rune('1'+par))
		}
		return "⊥"
	})
	out := sb.String()
	for _, want := range []string{"(i)", "(ii)", "(iii)", "⊥", "fires:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("panels missing %q:\n%s", want, out)
		}
	}
}

func TestRomanNumerals(t *testing.T) {
	tests := map[int]string{1: "i", 2: "ii", 4: "iv", 5: "v", 9: "ix", 14: "xiv", 19: "xix", 21: "21"}
	for n, want := range tests {
		if got := roman(n); got != want {
			t.Fatalf("roman(%d) = %q, want %q", n, got, want)
		}
	}
}
