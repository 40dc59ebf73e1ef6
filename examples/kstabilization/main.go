// How many faults can the system absorb? The k-stabilization lens from the
// paper's related work, computed exactly — and paid for at ball size, not
// space size: the legitimate set is enumerated in closed form (no pass
// over the configuration space), the distance-≤k balls grow incrementally
// (each radius extends the previous ball and its explored closure —
// checker.SweepKFaultsContext), and the checker and Markov analyses run
// subspace-native over the final closure. With -cache DIR the per-k ball
// closures are persisted, so a rerun loads them from disk, regrows the
// balls from their legitimate states and explores nothing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"weakstab"
	"weakstab/internal/checker"
	"weakstab/internal/markov"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

func main() {
	cacheDir := flag.String("cache", "", "optional on-disk space cache directory")
	flag.Parse()

	alg, err := weakstab.NewTokenRing(6)
	if err != nil {
		log.Fatal(err)
	}
	pol := scheduler.CentralPolicy{}
	const maxFaults = 2

	// One incremental sweep: the k=0 ball is the closed-form legitimate
	// set, each further radius adds one mutation shell and explores only
	// the closure states not already known. The final subspace feeds both
	// the per-k verdicts and the exact Markov recovery times.
	cache, err := spacecache.Open(*cacheDir)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	res, err := checker.SweepKFaultsContext(ctx, cache, alg, pol, maxFaults, statespace.Options{}, false)
	if err != nil {
		log.Fatal(err)
	}
	ss := res.Sub
	if ss == nil {
		log.Fatal("legitimate set is empty; nothing to analyze")
	}
	localDist := checker.BallLocalDistances(ss, res.Globals, res.Dist)

	chain, err := markov.FromSpace(ss)
	if err != nil {
		log.Fatal(err)
	}
	h, err := chain.HittingTimesContext(ctx, markov.TargetFromSpace(ss))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("token ring N=6 under the central scheduler:")
	fmt.Printf("(explored %d of %d configurations — the distance-≤%d ball and its closure, grown incrementally)\n",
		ss.NumStates(), ss.TotalConfigs(), maxFaults)
	warm := true
	for _, hit := range res.CacheHits {
		warm = warm && hit
	}
	if warm {
		fmt.Println("(ball closures loaded from the space cache — no exploration this run)")
	}
	fmt.Println("k  configs  deterministic-recovery  E[recovery | k faults]")
	for k := 0; k <= maxFaults; k++ {
		v := res.Verdicts[k]
		count, sum := 0, 0.0
		for s := 0; s < ss.NumStates(); s++ {
			if localDist[s] == k {
				count++
				sum += h[s]
			}
		}
		if count == 0 {
			continue
		}
		fmt.Printf("%d  %7d  %22v  %.2f steps\n", k, count, v.Certain, sum/float64(count))
	}
	fmt.Println()
	fmt.Println("deterministic guarantees collapse at the first fault (two tokens can")
	fmt.Println("alternate forever), but the randomized scheduler recovers in expected")
	fmt.Println("time that grows gently with the number of corrupted processes")
}
