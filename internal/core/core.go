// Package core is the paper's contribution as an executable decision
// procedure: given the explored transition system of an algorithm instance
// under a scheduler policy, it decides exactly where the instance sits in the
// stabilization hierarchy of Definitions 1–3,
//
//	deterministic self-stabilizing
//	  ⊂ probabilistically self-stabilizing (randomized scheduler, Def 2+6)
//	  ⊂ deterministically weak-stabilizing (Def 3)
//
// combining the exhaustive checker (closure, possible and certain
// convergence, strongly fair lassos) with the exact Markov analysis
// (probability-1 convergence, expected stabilization times). By Theorem 7,
// the probabilistic verdict also decides self-stabilization under Gouda's
// strong fairness, which is how the paper reconciles Theorem 5 with the
// strictness results of Section 3.
package core

import (
	"context"
	"fmt"
	"strings"

	"weakstab/internal/checker"
	"weakstab/internal/markov"
	"weakstab/internal/obs"
	"weakstab/internal/statespace"
)

// Class is a stabilization class.
type Class int

// Classes are ordered from strongest to weakest; None means the instance
// is not even weak-stabilizing under the policy.
const (
	ClassSelf Class = iota + 1
	ClassProbabilistic
	ClassWeak
	ClassNone
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassSelf:
		return "deterministic self-stabilizing"
	case ClassProbabilistic:
		return "probabilistically self-stabilizing"
	case ClassWeak:
		return "weak-stabilizing"
	case ClassNone:
		return "not stabilizing"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Report is the full classification of an algorithm instance under one
// scheduler policy.
type Report struct {
	Algorithm string
	Policy    string
	States    int

	// Closure is Definitions 1-3's strong closure property.
	Closure bool
	// PossibleConvergence is Definition 3's possible convergence.
	PossibleConvergence bool
	// CertainConvergence is Definition 1's certain convergence.
	CertainConvergence bool
	// ProbabilisticConvergence is Definition 2's probability-1 convergence
	// under the randomized scheduler drawing uniformly from the policy's
	// activation subsets (Definition 6).
	ProbabilisticConvergence bool
	// FairLassoFound indicates a strongly fair non-converging execution
	// was exhibited (refutes self-stabilization under the strongly fair
	// scheduler, as in Theorem 6).
	FairLassoFound bool

	// ExpectedSteps summarizes exact expected stabilization times under
	// the randomized scheduler (valid when ProbabilisticConvergence).
	ExpectedSteps markov.Summary
	// ConvergenceRadius is the maximum over configurations of the shortest
	// convergence path length (+Inf when possible convergence fails).
	ConvergenceRadius float64

	// TotalConfigs is the size of the full configuration space the analyzed
	// system lives in. Equal to States for a full-space analysis; for a
	// frontier-explored subspace, States/TotalConfigs is the reachable
	// fraction and every property above quantifies over the explored
	// (reachable) states only.
	TotalConfigs int64
}

// AnalyzeSpaceContext runs the full classification over an
// already-explored transition system — a statespace.Space over the full
// index range or over a frontier-explored closure — without any further
// enumeration. Over a closure, every property is restricted to the
// explored (reachable) states; this is sound because a closure is closed
// under successors. Exploration is the caller's: service.Execute is the
// one orchestrator that explores (through the space cache) and then calls
// this.
//
// A zero-copy mapped system (loaded through the cache's mmap path) is
// pinned for the duration of the analysis, so a concurrent Close cannot
// unmap the arrays mid-pass. ctx is checked between the checker and Markov
// phases and, inside the hitting-time solve, at solver-block boundaries
// (markov.HittingTimesContext).
func AnalyzeSpaceContext(ctx context.Context, ts *statespace.Space) (*Report, error) {
	if err := ts.Acquire(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer ts.Release()
	// Phase timings go to the process observer — the analysis takes no
	// options, and the phases matter per run, not per call site.
	o := obs.Default()
	a := ts.Algorithm()
	checkDone := o.Phase("checker")
	sp := checker.FromSpace(ts)
	closure := sp.CheckClosure()
	possible := sp.CheckPossibleConvergence()
	certain := sp.CheckCertainConvergence()
	lasso := sp.FindStronglyFairLasso()
	checkDone()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: analysis of %s canceled after checker phase: %w", a.Name(), err)
	}

	markovDone := o.Phase("markov")
	defer markovDone()
	chain, err := markov.FromSpace(ts)
	if err != nil {
		return nil, fmt.Errorf("core: building chain for %s: %w", a.Name(), err)
	}
	target := markov.TargetFromSpace(ts)
	probOne := chain.ReachesWithProbOne(target)
	allOne := true
	for _, ok := range probOne {
		allOne = allOne && ok
	}
	rep := &Report{
		Algorithm:                a.Name(),
		Policy:                   ts.Policy().Name(),
		States:                   ts.NumStates(),
		Closure:                  closure.Holds,
		PossibleConvergence:      possible.Holds,
		CertainConvergence:       certain.Holds,
		ProbabilisticConvergence: allOne,
		FairLassoFound:           lasso.Found,
		ConvergenceRadius:        sp.MaxShortestConvergencePath(),
		TotalConfigs:             ts.TotalConfigs(),
	}
	if allOne {
		h, err := chain.HittingTimesContext(ctx, target)
		if err != nil {
			return nil, fmt.Errorf("core: hitting times for %s: %w", a.Name(), err)
		}
		rep.ExpectedSteps = markov.Summarize(h, target)
	}
	return rep, nil
}

// SelfStabilizing reports Definition 1.
func (r *Report) SelfStabilizing() bool { return r.Closure && r.CertainConvergence }

// ProbabilisticallySelfStabilizing reports Definition 2 under the
// randomized scheduler of Definition 6.
func (r *Report) ProbabilisticallySelfStabilizing() bool {
	return r.Closure && r.ProbabilisticConvergence
}

// WeakStabilizing reports Definition 3.
func (r *Report) WeakStabilizing() bool { return r.Closure && r.PossibleConvergence }

// Strongest returns the strongest class the instance belongs to.
func (r *Report) Strongest() Class {
	switch {
	case r.SelfStabilizing():
		return ClassSelf
	case r.ProbabilisticallySelfStabilizing():
		return ClassProbabilistic
	case r.WeakStabilizing():
		return ClassWeak
	default:
		return ClassNone
	}
}

// CheckHierarchy verifies the paper's containments on this instance:
// certain convergence implies probability-1 convergence implies (for
// deterministic algorithms; Theorems 5+7) possible convergence. A non-nil
// error indicates a bug in the library, not a property of the algorithm.
func (r *Report) CheckHierarchy() error {
	if r.CertainConvergence && !r.ProbabilisticConvergence {
		return fmt.Errorf("core: %s/%s: certain convergence without probabilistic convergence",
			r.Algorithm, r.Policy)
	}
	if r.ProbabilisticConvergence && !r.PossibleConvergence {
		return fmt.Errorf("core: %s/%s: probabilistic convergence without possible convergence",
			r.Algorithm, r.Policy)
	}
	if r.FairLassoFound && r.CertainConvergence {
		return fmt.Errorf("core: %s/%s: fair diverging lasso found in a certainly-converging system",
			r.Algorithm, r.Policy)
	}
	return nil
}

// String renders a compact multi-line report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s under %s scheduler (%d configurations)\n", r.Algorithm, r.Policy, r.States)
	if r.TotalConfigs > int64(r.States) {
		fmt.Fprintf(&sb, "  reachable subspace:        %d of %d configurations (%.3g%%); properties quantify over it\n",
			r.States, r.TotalConfigs, 100*float64(r.States)/float64(r.TotalConfigs))
	}
	fmt.Fprintf(&sb, "  strong closure:            %v\n", r.Closure)
	fmt.Fprintf(&sb, "  possible convergence:      %v\n", r.PossibleConvergence)
	fmt.Fprintf(&sb, "  certain convergence:       %v\n", r.CertainConvergence)
	fmt.Fprintf(&sb, "  probability-1 convergence: %v (randomized scheduler)\n", r.ProbabilisticConvergence)
	fmt.Fprintf(&sb, "  strongly fair divergence:  %v\n", r.FairLassoFound)
	fmt.Fprintf(&sb, "  classification:            %s\n", r.Strongest())
	if r.ProbabilisticConvergence && r.ExpectedSteps.States > 0 {
		fmt.Fprintf(&sb, "  expected stabilization:    mean %.2f, max %.2f steps\n",
			r.ExpectedSteps.Mean, r.ExpectedSteps.Max)
	}
	return sb.String()
}
