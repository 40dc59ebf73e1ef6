package cli

import (
	"math"
	"strings"
	"testing"

	"weakstab/internal/netsim"
)

func TestParseFaults(t *testing.T) {
	tests := []struct {
		spec string
		want []string // Name() of each parsed fault, in stack order
	}{
		{"", nil},
		{"   ", nil},
		{"loss:0.1", []string{"loss(0.1)"}},
		{"latency:fixed:3", []string{"latency(fixed:3)"}},
		{"latency:uniform:1:4", []string{"latency(uniform:1:4)"}},
		{"latency:geom:2.5", []string{"latency(geom:2.5)"}},
		{"ge:0.05:0.3:0.01:0.5", []string{"ge(0.05:0.3:0.01:0.5)"}},
		{"dup:0.2", []string{"dup(0.2)"}},
		{"reorder:0.1:4", []string{"reorder(0.1:4)"}},
		{"corrupt:0.02", []string{"corrupt(0.02)"}},
		{"crash:0.001:4", []string{"crash(0.001:4:reset)"}},
		{"crash:0.001:4:hold", []string{"crash(0.001:4:hold)"}},
		{
			"latency:uniform:1:3, loss:0.05 ,dup:0.1",
			[]string{"latency(uniform:1:3)", "loss(0.05)", "dup(0.1)"},
		},
	}
	for _, tc := range tests {
		faults, err := ParseFaults(tc.spec)
		if err != nil {
			t.Fatalf("ParseFaults(%q): %v", tc.spec, err)
		}
		if len(faults) != len(tc.want) {
			t.Fatalf("ParseFaults(%q): %d faults, want %d", tc.spec, len(faults), len(tc.want))
		}
		for i, f := range faults {
			if f.Name() != tc.want[i] {
				t.Fatalf("ParseFaults(%q)[%d] = %s, want %s", tc.spec, i, f.Name(), tc.want[i])
			}
		}
	}
}

func TestParseFaultsErrors(t *testing.T) {
	bad := []string{
		"warp:0.5",            // unknown fault
		"loss",                // missing probability
		"loss:1.5",            // probability out of range
		"loss:x",              // not a number
		"latency",             // missing distribution
		"latency:normal:3",    // unknown distribution
		"latency:fixed",       // missing argument
		"latency:uniform:4:2", // hi < lo
		"latency:uniform:0:2", // lo < 1
		"latency:geom:0.5",    // mean < 1
		"ge:0.05:0.3:0.01",    // arity
		"ge:0:0.3:0.01:0.5",   // zero transition probability
		"reorder:0.1",         // missing bound
		"reorder:0.1:0",       // bound < 1
		"crash:0.001",         // missing mean downtime
		"crash:0.001:0.5",     // downtime < 1
		"crash:2:4",           // rate out of range
		"loss:0.1,,dup:0.1",   // empty item
		"latency:fixed:-3",    // D < 1
		"latency:fixed:0",     // D < 1
		"latency:geom:NaN",    // non-finite mean
		"latency:geom:Inf",    // non-finite mean
		"latency:geom:+Inf",   // non-finite mean
		"loss:NaN",            // non-finite probability
		"dup:-Inf",            // non-finite probability
		"ge:NaN:0.3:0.01:0.5", // non-finite transition probability
		"crash:NaN:NaN",       // non-finite rate and downtime
		"crash:0.001:Inf",     // non-finite downtime
	}
	for _, spec := range bad {
		if _, err := ParseFaults(spec); err == nil {
			t.Fatalf("ParseFaults(%q) accepted", spec)
		} else if !strings.Contains(err.Error(), "grammar") {
			t.Fatalf("ParseFaults(%q) error lacks grammar hint: %v", spec, err)
		}
	}
}

func TestBuildColoring(t *testing.T) {
	for _, tc := range []struct{ topo, want string }{
		{"", "coloring(ring(6))"},
		{"ring", "coloring(ring(6))"},
		{"star", "coloring(star(6))"},
	} {
		a, err := Spec{Algorithm: "coloring", N: 6, Topology: tc.topo}.Build()
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != tc.want {
			t.Fatalf("topology %q: Name = %q, want %q", tc.topo, a.Name(), tc.want)
		}
	}
	// Coloring is deterministic, so the transformer applies.
	a, err := Spec{Algorithm: "coloring", N: 5, Transform: true}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(a.Name(), "trans(coloring") {
		t.Fatalf("transformed Name = %q", a.Name())
	}
	if _, err := (Spec{Algorithm: "coloring", N: 1}).Build(); err == nil {
		t.Fatal("coloring on one process accepted")
	}
}

// FuzzParseFaults checks that the fault grammar never panics and that
// every accepted spec yields finite parameters inside the documented
// ranges: probabilities in [0,1], latencies and downtimes >= 1, bounds
// >= 1 and positive Gilbert–Elliott transition probabilities.
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		"", "loss:0.1", "latency:fixed:3", "latency:uniform:1:4", "latency:geom:2.5",
		"ge:0.05:0.3:0.01:0.5", "dup:0.2", "reorder:0.1:4", "corrupt:0.02",
		"crash:0.001:4:hold", "latency:geom:NaN", "crash:NaN:NaN", "latency:fixed:-3",
		"latency:uniform:1:3, loss:0.05 ,dup:0.1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		faults, err := ParseFaults(spec)
		if err != nil {
			return
		}
		prob := func(name string, v float64) {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("ParseFaults(%q): %s %g outside [0,1]", spec, name, v)
			}
		}
		atLeastOne := func(name string, v float64) {
			if !(v >= 1) || math.IsInf(v, 0) {
				t.Fatalf("ParseFaults(%q): %s %g not a finite value >= 1", spec, name, v)
			}
		}
		for _, fault := range faults {
			switch ft := fault.(type) {
			case *netsim.Latency:
				switch d := ft.D.(type) {
				case netsim.Fixed:
					atLeastOne("fixed latency", float64(d))
				case netsim.Uniform:
					atLeastOne("uniform low", float64(d.Lo))
					atLeastOne("uniform width", float64(d.Hi-d.Lo+1))
				case netsim.Geometric:
					atLeastOne("geometric mean", d.Mean)
				default:
					t.Fatalf("ParseFaults(%q): unexpected latency %T", spec, d)
				}
			case *netsim.Loss:
				prob("loss", ft.P)
			case *netsim.GilbertElliott:
				prob("good→bad", ft.PGB)
				prob("bad→good", ft.PBG)
				prob("good-state loss", ft.LossGood)
				prob("bad-state loss", ft.LossBad)
				if ft.PGB <= 0 || ft.PBG <= 0 {
					t.Fatalf("ParseFaults(%q): non-positive transition probability", spec)
				}
			case *netsim.Duplicate:
				prob("duplicate", ft.P)
			case *netsim.Reorder:
				prob("reorder", ft.P)
				atLeastOne("reorder bound", float64(ft.Bound))
			case *netsim.Corrupt:
				prob("corrupt", ft.P)
			case *netsim.CrashRecover:
				prob("crash rate", ft.Rate)
				atLeastOne("mean downtime", ft.MeanDown)
			default:
				t.Fatalf("ParseFaults(%q): unexpected fault %T", spec, fault)
			}
		}
	})
}
