package scheduler

// Fairness predicates over finite lassos. An infinite execution that
// eventually repeats a finite cycle of steps forever is fully described by
// that cycle; the paper's fairness notions then become decidable:
//
//   - strongly fair: every process enabled infinitely often is chosen
//     infinitely often. Over a repeated cycle, "infinitely often" means "in
//     at least one step of the cycle".
//   - weakly fair: every continuously enabled process is eventually chosen.
//     Over a repeated cycle, a process enabled in every step of the cycle
//     must be chosen in at least one step.
//   - Gouda fair: every transition from a configuration occurring
//     infinitely often occurs infinitely often. A lasso is Gouda fair iff
//     every possible transition out of every cycle configuration appears in
//     the cycle — far stronger than strong fairness (Theorem 6).

// StepRecord captures one execution step for fairness analysis: the set of
// enabled processes in the pre-step configuration and the activated subset.
type StepRecord struct {
	Enabled []int
	Chosen  []int
}

// StronglyFairCycle reports whether repeating the cycle forever yields a
// strongly fair execution: every process enabled in some step of the cycle
// is chosen in some step of the cycle.
func StronglyFairCycle(cycle []StepRecord) bool {
	everEnabled := map[int]bool{}
	everChosen := map[int]bool{}
	for _, r := range cycle {
		for _, p := range r.Enabled {
			everEnabled[p] = true
		}
		for _, p := range r.Chosen {
			everChosen[p] = true
		}
	}
	for p := range everEnabled {
		if !everChosen[p] {
			return false
		}
	}
	return true
}

// WeaklyFairCycle reports whether repeating the cycle forever yields a
// weakly fair execution: every process enabled in every step of the cycle
// is chosen in at least one step.
func WeaklyFairCycle(cycle []StepRecord) bool {
	if len(cycle) == 0 {
		return true
	}
	everChosen := map[int]bool{}
	always := map[int]bool{}
	for _, p := range cycle[0].Enabled {
		always[p] = true
	}
	for _, r := range cycle {
		next := map[int]bool{}
		for _, p := range r.Enabled {
			if always[p] {
				next[p] = true
			}
		}
		always = next
		for _, p := range r.Chosen {
			everChosen[p] = true
		}
	}
	for p := range always {
		if !everChosen[p] {
			return false
		}
	}
	return true
}
