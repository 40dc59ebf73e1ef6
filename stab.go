// Package weakstab is a library for building, simulating and formally
// classifying stabilizing distributed algorithms in the locally shared
// memory model, reproducing "Weak vs. Self vs. Probabilistic Stabilization"
// (Devismes, Tixeuil, Yamashita; ICDCS 2008 / INRIA RR-6366).
//
// The package is a small facade over the internal engine, holding what
// the programs under examples/ call:
//
//   - topologies: chains and random trees with anonymous local neighbor
//     indexing (NewChain, NewRandomTree);
//   - the paper's algorithms: Algorithm 1 token circulation (NewTokenRing),
//     Algorithm 2 tree leader election (NewLeaderElection) and Algorithm 3
//     (NewSyncPair);
//   - the §4 transformer turning any deterministic weak-stabilizing
//     algorithm into a probabilistic self-stabilizing one (Transform);
//   - schedulers and scheduler policies (Central/Distributed/Synchronous);
//   - exact classification in the stabilization hierarchy (Classify),
//     single steps, fault injection and Monte-Carlo simulation (Simulate).
//
// The command-line tools under cmd/ reach the rest of the engine (more
// topologies and algorithms, k-fault sweeps, message passing, the
// analysis service) directly.
//
// Quick start:
//
//	alg, _ := weakstab.NewTokenRing(8)
//	report, _ := weakstab.Classify(alg, weakstab.DistributedPolicy())
//	fmt.Print(report) // weak-stabilizing, probabilistically self-stabilizing…
//
//	trans := weakstab.Transform(alg)
//	res := weakstab.Simulate(trans, weakstab.DistributedScheduler(),
//		weakstab.RandomConfiguration(trans, rng), rng, 0)
package weakstab

import (
	"context"
	"math/rand"

	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/core"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/sim"
	"weakstab/internal/statespace"
	"weakstab/internal/transformer"
)

// Core model types, re-exported.
type (
	// Graph is an anonymous communication graph with local neighbor
	// indexing.
	Graph = graph.Graph
	// Configuration assigns one local state to every process.
	Configuration = protocol.Configuration
	// Algorithm is a distributed algorithm in the guarded-action model.
	Algorithm = protocol.Algorithm
	// Deterministic marks algorithms whose actions have unique outcomes;
	// only these can be transformed.
	Deterministic = protocol.Deterministic
	// Outcome is a probabilistic action result.
	Outcome = protocol.Outcome
	// Scheduler selects the activation subset of each step online.
	Scheduler = scheduler.Scheduler
	// Policy is a daemon: the activation subsets it allows. It takes
	// exactly three values, those CentralPolicy, DistributedPolicy and
	// SynchronousPolicy return.
	Policy = scheduler.Policy
	// Report is the exact classification of an instance (see Classify).
	Report = core.Report
	// SimResult reports one simulation run.
	SimResult = sim.Result
)

// NewChain returns the path graph on n >= 2 processes.
func NewChain(n int) (*Graph, error) { return graph.Chain(n) }

// NewRandomTree returns a uniformly random labeled tree on n >= 2 nodes.
func NewRandomTree(n int, rng *rand.Rand) (*Graph, error) { return graph.RandomTree(n, rng) }

// NewTokenRing returns Algorithm 1 (Beauquier et al. mN-counter token
// circulation) on an anonymous unidirectional ring of n >= 3 processes.
func NewTokenRing(n int) (*tokenring.Algorithm, error) { return tokenring.New(n) }

// NewLeaderElection returns Algorithm 2 (Par-pointer leader election) on
// the anonymous tree g.
func NewLeaderElection(g *Graph) (*leadertree.Algorithm, error) { return leadertree.New(g) }

// NewSyncPair returns Algorithm 3, the two-process protocol whose only
// converging step is synchronous.
func NewSyncPair() (*syncpair.Algorithm, error) { return syncpair.New() }

// Transform applies the paper's §4 construction with a fair coin: every
// activated process executes its action only if it wins a toss. The result
// is probabilistically self-stabilizing under synchronous and distributed
// randomized schedulers whenever the input is weak-stabilizing
// (Theorems 8–9).
func Transform(inner Deterministic) Algorithm { return transformer.New(inner) }

// CentralScheduler returns the central randomized scheduler (one uniform
// enabled process per step).
func CentralScheduler() Scheduler { return scheduler.NewCentralRandomized() }

// DistributedScheduler returns the distributed randomized scheduler
// (uniform non-empty subset per step, Definition 6).
func DistributedScheduler() Scheduler { return scheduler.NewDistributedRandomized() }

// SynchronousScheduler returns the synchronous scheduler (all enabled
// processes every step).
func SynchronousScheduler() Scheduler { return scheduler.NewSynchronous() }

// CentralPolicy returns the central scheduler's activation-subset policy.
func CentralPolicy() Policy { return scheduler.CentralPolicy }

// DistributedPolicy returns the distributed scheduler's policy.
func DistributedPolicy() Policy { return scheduler.DistributedPolicy }

// SynchronousPolicy returns the synchronous scheduler's policy.
func SynchronousPolicy() Policy { return scheduler.SynchronousPolicy }

// Classify decides exactly where the instance sits in the stabilization
// hierarchy under the given scheduler policy: strong closure, possible /
// certain / probability-1 convergence, strongly fair diverging executions,
// and exact expected stabilization times. It enumerates the full
// configuration space, so it is meant for bounded instances (thousands to
// millions of configurations).
func Classify(a Algorithm, pol Policy) (*Report, error) {
	ctx := context.Background()
	sp, err := statespace.BuildContext(ctx, a, pol, statespace.Options{})
	if err != nil {
		return nil, err
	}
	defer sp.Close()
	return core.AnalyzeSpaceContext(ctx, sp)
}

// RandomConfiguration samples a configuration uniformly from a's space.
func RandomConfiguration(a Algorithm, rng *rand.Rand) Configuration {
	return protocol.RandomConfiguration(a, rng)
}

// Simulate runs a under the scheduler from init until a legitimate
// configuration or maxSteps (0 means 1,000,000).
func Simulate(a Algorithm, s Scheduler, init Configuration, rng *rand.Rand, maxSteps int) SimResult {
	return sim.Run(a, s, init, rng, sim.Options{MaxSteps: maxSteps})
}

// InjectFaults corrupts k distinct processes' states uniformly at random —
// the paper's transient-fault model.
func InjectFaults(a Algorithm, cfg Configuration, k int, rng *rand.Rand) Configuration {
	return sim.InjectFaults(a, cfg, k, rng)
}

// EnabledProcesses returns the processes with an enabled action in cfg.
func EnabledProcesses(a Algorithm, cfg Configuration) []int {
	return protocol.EnabledProcesses(a, cfg)
}

// Step executes one atomic scheduler step (the enabled members of subset
// fire against the pre-step configuration).
func Step(a Algorithm, cfg Configuration, subset []int, rng *rand.Rand) Configuration {
	return protocol.Step(a, cfg, subset, rng)
}
