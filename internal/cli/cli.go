// Package cli holds the shared plumbing of the command-line tools: building
// algorithm instances, topologies, schedulers and policies from flag
// values.
package cli

import (
	"fmt"
	"math/rand"
	"strings"

	"weakstab/internal/algorithms/centers"
	"weakstab/internal/algorithms/coloring"
	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/syncpair"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/transformer"
)

// TopologyUsage is the help text of every command's -topology flag, whose
// default "" leaves the choice to the algorithm (Spec.Topology).
const TopologyUsage = "topology where the algorithm allows one: ring (coloring default), chain, star, random, figure2"

// Spec selects an algorithm instance.
type Spec struct {
	// Algorithm is one of: tokenring, leadertree, centerelector,
	// centerfinder, syncpair, dijkstra, herman, coloring.
	Algorithm string
	// N is the number of processes (ignored by syncpair).
	N int
	// Topology is chain, star, random or figure2 for tree algorithms
	// (default chain); coloring also accepts ring (its default). Ring
	// algorithms ignore it.
	Topology string
	// K is Dijkstra's state count (default N) or the token ring modulus
	// override (default mN).
	K int
	// Transform wraps the algorithm with the §4 coin-toss transformer.
	Transform bool
	// Bias is the transformer coin bias (default 0.5).
	Bias float64
	// Seed drives random topologies.
	Seed int64
}

// Algorithms lists the accepted algorithm names.
func Algorithms() []string {
	return []string{"tokenring", "leadertree", "centerelector", "centerfinder", "syncpair", "dijkstra", "herman", "coloring"}
}

func (s Spec) tree() (*graph.Graph, error) {
	switch strings.ToLower(s.Topology) {
	case "", "chain":
		return graph.Chain(s.N)
	case "star":
		return graph.Star(s.N)
	case "random":
		return graph.RandomTree(s.N, rand.New(rand.NewSource(s.Seed+1)))
	case "figure2":
		return graph.Figure2Tree(), nil
	default:
		return nil, fmt.Errorf("unknown tree topology %q (chain, star, random, figure2)", s.Topology)
	}
}

// Build constructs the algorithm instance.
func (s Spec) Build() (protocol.Algorithm, error) {
	var (
		det protocol.Deterministic
		err error
	)
	switch strings.ToLower(s.Algorithm) {
	case "tokenring":
		if s.K > 0 {
			det, err = tokenring.NewWithModulus(s.N, s.K)
		} else {
			det, err = tokenring.New(s.N)
		}
	case "leadertree":
		var g *graph.Graph
		if g, err = s.tree(); err == nil {
			det, err = leadertree.New(g)
		}
	case "centerelector":
		var g *graph.Graph
		if g, err = s.tree(); err == nil {
			det, err = centers.NewElector(g)
		}
	case "centerfinder":
		var g *graph.Graph
		if g, err = s.tree(); err == nil {
			det, err = centers.NewFinder(g)
		}
	case "syncpair":
		det, err = syncpair.New()
	case "dijkstra":
		k := s.K
		if k <= 0 {
			k = s.N
		}
		det, err = dijkstra.New(s.N, k)
	case "herman":
		if s.Transform {
			return nil, fmt.Errorf("herman is already probabilistic; the transformer requires a deterministic algorithm")
		}
		return herman.New(s.N)
	case "coloring":
		var g *graph.Graph
		if strings.EqualFold(s.Topology, "ring") || s.Topology == "" {
			g, err = graph.Ring(s.N)
		} else {
			g, err = s.tree()
		}
		if err == nil {
			det, err = coloring.New(g)
		}
	default:
		return nil, fmt.Errorf("unknown algorithm %q (one of %s)", s.Algorithm, strings.Join(Algorithms(), ", "))
	}
	if err != nil {
		return nil, err
	}
	if !s.Transform {
		return det, nil
	}
	bias := s.Bias
	if bias == 0 {
		bias = 0.5
	}
	return transformer.NewBiased(det, bias)
}

// BuildScheduler maps a name to an online scheduler.
func BuildScheduler(name string) (scheduler.Scheduler, error) {
	switch strings.ToLower(name) {
	case "", "central", "central-randomized":
		return scheduler.NewCentralRandomized(), nil
	case "distributed", "dist", "distributed-randomized":
		return scheduler.NewDistributedRandomized(), nil
	case "synchronous", "sync":
		return scheduler.NewSynchronous(), nil
	case "roundrobin", "round-robin":
		return scheduler.NewRoundRobin(), nil
	case "lexmin", "lex-min":
		return scheduler.NewLexMin(), nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q (central, distributed, synchronous, roundrobin, lexmin)", name)
	}
}

// BuildPolicy maps a name to a checker policy.
func BuildPolicy(name string) (scheduler.Policy, error) {
	switch strings.ToLower(name) {
	case "", "central":
		return scheduler.CentralPolicy, nil
	case "distributed", "dist":
		return scheduler.DistributedPolicy, nil
	case "synchronous", "sync":
		return scheduler.SynchronousPolicy, nil
	default:
		return nil, fmt.Errorf("unknown policy %q (central, distributed, synchronous)", name)
	}
}
