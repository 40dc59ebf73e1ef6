// Package trace records executions step by step and renders them as ASCII,
// regenerating the paper's figures: ring panels with dt values and an
// asterisk on the token holder (Figure 1) and parent-pointer tables for the
// tree election (Figures 2 and 3).
package trace

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/sim"
)

// Step is one recorded transition.
type Step struct {
	Before protocol.Configuration
	Chosen []int
	After  protocol.Configuration
}

// Trace is a recorded execution.
type Trace struct {
	Algorithm protocol.Algorithm
	Initial   protocol.Configuration
	Steps     []Step
}

// Final returns the last configuration of the trace.
func (t *Trace) Final() protocol.Configuration {
	if len(t.Steps) == 0 {
		return t.Initial
	}
	return t.Steps[len(t.Steps)-1].After
}

// Configurations returns the sequence of configurations including the
// initial one.
func (t *Trace) Configurations() []protocol.Configuration {
	out := make([]protocol.Configuration, 0, len(t.Steps)+1)
	out = append(out, t.Initial)
	for _, s := range t.Steps {
		out = append(out, s.After)
	}
	return out
}

// Record runs the algorithm under the scheduler from init for at most
// maxSteps steps, stopping early when a terminal configuration is reached.
// The steps are sim.Execute's.
func Record(a protocol.Algorithm, sched scheduler.Scheduler, init protocol.Configuration, rng *rand.Rand, maxSteps int) *Trace {
	tr := &Trace{Algorithm: a, Initial: init.Clone()}
	sim.Execute(a, sched, init, rng, maxSteps, nil, func(before protocol.Configuration, chosen []int, after protocol.Configuration) {
		tr.Steps = append(tr.Steps, Step{Before: before, Chosen: chosen, After: after})
	})
	return tr
}

// RecordScript replays an explicit activation script (one subset per step)
// and records the execution; it stops early at terminal configurations.
func RecordScript(a protocol.Algorithm, init protocol.Configuration, script [][]int, rng *rand.Rand) *Trace {
	sched := scheduler.NewScripted("script", script, false)
	return Record(a, sched, init, rng, len(script))
}

// RenderTable writes the trace as a step table:
//
//	step | configuration | activated | actions
func RenderTable(w io.Writer, t *Trace) {
	fmt.Fprintf(w, "algorithm: %s\n", t.Algorithm.Name())
	fmt.Fprintf(w, "%4s  %-24s  %-12s  %s\n", "step", "configuration", "activated", "actions")
	fmt.Fprintf(w, "%4d  %-24s  %-12s  %s\n", 0, t.Initial.String(), "-", "-")
	for i, s := range t.Steps {
		fmt.Fprintf(w, "%4d  %-24s  %-12s  %s\n",
			i+1, s.After.String(), intsString(s.Chosen), strings.Join(t.fired(s, ""), " "))
	}
}

// fired names, in selection order, the action each process selected in s
// executed, as "P<i>:<action><suffix>"; a selected process that was not
// enabled before the step executed nothing and is left out.
func (t *Trace) fired(s Step, suffix string) []string {
	var acts []string
	for _, p := range s.Chosen {
		if act := t.Algorithm.EnabledAction(s.Before, p); act != protocol.Disabled {
			acts = append(acts, fmt.Sprintf("P%d:%s%s", p+1, t.Algorithm.ActionName(act), suffix))
		}
	}
	return acts
}

// TokenMarker tells the ring renderer which process holds the token.
type TokenMarker func(cfg protocol.Configuration, p int) bool

// RenderRingPanels writes Figure 1-style panels: for each configuration of
// the trace, one line per process with its state value, marking token
// holders with an asterisk, panels labeled (i), (ii), ...
func RenderRingPanels(w io.Writer, t *Trace, marker TokenMarker) {
	configs := t.Configurations()
	for i, cfg := range configs {
		fmt.Fprintf(w, "(%s)", roman(i+1))
		for p, v := range cfg {
			mark := " "
			if marker(cfg, p) {
				mark = "*"
			}
			fmt.Fprintf(w, "  P%d:%d%s", p+1, v, mark)
		}
		fmt.Fprintln(w)
	}
}

// StateLabeler renders a process state as a short string (e.g. a parent
// arrow "→P5" or "⊥").
type StateLabeler func(cfg protocol.Configuration, p int) string

// RenderLabeledPanels writes Figure 2/3-style panels using a caller
// supplied state labeler, one panel per configuration.
func RenderLabeledPanels(w io.Writer, t *Trace, label StateLabeler) {
	configs := t.Configurations()
	for i, cfg := range configs {
		fmt.Fprintf(w, "(%s)", roman(i+1))
		for p := range cfg {
			fmt.Fprintf(w, "  P%d:%s", p+1, label(cfg, p))
		}
		fmt.Fprintln(w)
		if i < len(t.Steps) {
			if acts := t.fired(t.Steps[i], "*"); len(acts) > 0 {
				fmt.Fprintf(w, "      fires: %s\n", strings.Join(acts, " "))
			}
		}
	}
}

func intsString(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("P%d", x+1)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// roman renders 1..20 as lowercase roman numerals (panel labels).
func roman(n int) string {
	if n < 1 || n > 20 {
		return fmt.Sprint(n)
	}
	values := []struct {
		v int
		s string
	}{{10, "x"}, {9, "ix"}, {5, "v"}, {4, "iv"}, {1, "i"}}
	var sb strings.Builder
	for _, pair := range values {
		for n >= pair.v {
			sb.WriteString(pair.s)
			n -= pair.v
		}
	}
	return sb.String()
}
