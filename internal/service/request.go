// Package service is the stabilization-as-a-service layer: one
// job-execution path (Execute), which the stabcheck CLI calls directly,
// and the Manager the stabserve daemon runs it through: a bounded worker
// pool with in-flight singleflight dedupe, an in-memory LRU of decoded
// results over the disk space cache, per-job cancellation and deadlines,
// per-job event feeds for streaming subscribers, and graceful drain.
//
// The layering mirrors the cache hierarchy: a submitted request first
// hits the report LRU (a completed job is answered without touching
// disk), then the in-flight index (an identical running job is joined
// instead of re-executed), and only then becomes a new job — whose
// exploration itself goes through the content-addressed disk cache, so
// even a cold job of a previously-seen instance explores nothing.
package service

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"weakstab/internal/cli"
	"weakstab/internal/mc"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
)

// Request selects an algorithm instance, a scheduler policy and an
// analysis mode — the JSON body of stabserve's POST /jobs and the value
// stabcheck assembles from its flags. The zero value of every optional
// field means "default", matching the CLI flag defaults.
type Request struct {
	// Alg names the algorithm (cli.Algorithms). Required.
	Alg string `json:"alg"`
	// N is the number of processes.
	N int `json:"n"`
	// Topology is the tree topology for tree algorithms (chain, star,
	// random, figure2; coloring also accepts ring).
	Topology string `json:"topology,omitempty"`
	// K is Dijkstra's state count or the token ring modulus override.
	K int `json:"k,omitempty"`
	// Transform applies the §4 coin-toss transformer with the given Bias
	// (0 means 0.5).
	Transform bool    `json:"transform,omitempty"`
	Bias      float64 `json:"bias,omitempty"`
	// Seed drives random topologies and mode "mc"'s sampling streams
	// (ignored — and normalized away — otherwise).
	Seed int64 `json:"seed,omitempty"`
	// Policy is the scheduler policy: central (default), distributed,
	// synchronous.
	Policy string `json:"policy,omitempty"`

	// Mode selects the analysis: "report" (the default; the full
	// classification), "sweep" (the incremental k-fault sweep, which
	// requires KMax), or "mc" (the Monte Carlo stabilization-time
	// estimate). An empty Mode is derived from KMax.
	Mode string `json:"mode,omitempty"`
	// Reachable explores only the subspace reachable from the seed set
	// (From, default: the legitimate set) instead of the full range.
	Reachable bool `json:"reachable,omitempty"`
	// From gives explicit seed configurations for Reachable:
	// comma-separated process states, ';' between configurations.
	From string `json:"from,omitempty"`
	// KFaults, when non-nil, also analyzes convergence within *KFaults
	// corrupted processes (report mode).
	KFaults *int `json:"kfaults,omitempty"`
	// KMax, when non-nil, selects the incremental sweep k = 0..*KMax,
	// stopping at the smallest k that breaks certain convergence.
	KMax *int `json:"kmax,omitempty"`

	// Trials, CI and MCMaxSteps drive mode "mc" (the Monte Carlo
	// stabilization-time estimator): the walker count (0 = the
	// estimator's default), the optional target 95% confidence half-width
	// for deterministic early stopping (0 = run every trial), and the
	// per-walker step budget (0 = the estimator's default). In mc mode
	// Seed is semantic — it keys every walker's random stream — so unlike
	// the other modes it always survives normalization.
	Trials     int     `json:"trials,omitempty"`
	CI         float64 `json:"ci,omitempty"`
	MCMaxSteps int     `json:"mc_max_steps,omitempty"`

	// MaxStates caps the explored configuration space (0 = default).
	MaxStates int64 `json:"max_states,omitempty"`
	// Workers sets the worker-pool size of the exploration and analyses
	// (0 = all CPUs). Execute honours it, which is how stabcheck's
	// -workers takes effect. An execution detail: it never changes the
	// result, so it is excluded from the job identity and from the
	// result's request echo. A Manager queues that identity, so it drops
	// the field: every stabserve job runs with one worker per CPU.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds the job wall clock from submission (0 = the
	// manager's default). An execution detail like Workers.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Mode values.
const (
	ModeReport = "report"
	ModeSweep  = "sweep"
	ModeMC     = "mc"
)

// normalize lowercases the name fields, resolves defaulted fields to
// their effective values and zeroes ignored ones, so two spellings of
// the same job normalize to one identity. Returns a copy.
func (r Request) normalize() Request {
	r.Alg = strings.ToLower(r.Alg)
	r.Topology = strings.ToLower(r.Topology)
	r.Policy = strings.ToLower(r.Policy)
	r.Mode = strings.ToLower(r.Mode)
	if r.Policy == "" {
		r.Policy = "central"
	}
	if r.Mode == "" {
		if r.KMax != nil {
			r.Mode = ModeSweep
		} else {
			r.Mode = ModeReport
		}
	}
	if !r.Transform {
		r.Bias = 0
	} else if r.Bias == 0 {
		r.Bias = 0.5
	}
	// Resolve the fields the chosen algorithm ignores or defaults, so
	// the CLI's flag defaults and a minimal JSON body normalize to one
	// identity: ring algorithms take no topology, only tree algorithms
	// default to a chain, and only tokenring/dijkstra read K.
	switch r.Alg {
	case "tokenring", "dijkstra":
		r.Topology = ""
	case "herman", "syncpair":
		r.Topology = ""
		r.K = 0
	case "coloring":
		if r.Topology == "" {
			r.Topology = "ring"
		}
		r.K = 0
	default:
		if r.Topology == "" {
			r.Topology = "chain"
		}
		r.K = 0
	}
	if r.Mode == ModeMC {
		// Resolve the estimator defaults so "trials omitted" and "trials
		// 10000" normalize to one identity.
		if r.Trials == 0 {
			r.Trials = mc.DefaultTrials
		}
		if r.MCMaxSteps == 0 {
			r.MCMaxSteps = mc.DefaultMaxSteps
		}
	} else {
		r.Trials, r.CI, r.MCMaxSteps = 0, 0, 0
	}
	if r.Topology != "random" && r.Mode != ModeMC {
		// Seed only feeds random topologies — and, in mc mode, the
		// sampling streams; normalizing it away everywhere else keeps the
		// CLI's -seed default from splitting identities.
		r.Seed = 0
	}
	return r
}

// validate rejects inconsistent mode combinations, with the same
// messages the stabcheck flags produce.
func (r Request) validate() error {
	switch r.Mode {
	case ModeReport:
		if r.KMax != nil {
			return errors.New("use -kfaults K for one radius or -kmax K for the incremental sweep, not both")
		}
	case ModeSweep:
		switch {
		case r.KMax == nil:
			return errors.New("sweep mode requires kmax")
		case r.KFaults != nil:
			return errors.New("use -kfaults K for one radius or -kmax K for the incremental sweep, not both")
		case r.Reachable:
			return errors.New("-kmax is ball-sized by construction; drop -reachable")
		case r.From != "":
			return errors.New("-kmax seeds from the legitimate set; drop -from")
		case *r.KMax < 0:
			return errors.New("kmax must be >= 0")
		}
	case ModeMC:
		switch {
		case r.KMax != nil:
			return errors.New("-mc estimates stabilization times by simulation; drop -kmax")
		case r.KFaults != nil:
			return errors.New("-mc estimates stabilization times by simulation; drop -kfaults")
		case r.Trials < 0:
			return errors.New("trials must be >= 0")
		case r.CI < 0 || math.IsNaN(r.CI):
			return errors.New("ci must be >= 0")
		case r.MCMaxSteps < 0:
			return errors.New("mc step budget must be >= 0")
		}
	default:
		return fmt.Errorf("unknown mode %q (report, sweep, mc)", r.Mode)
	}
	if r.KFaults != nil && *r.KFaults < 0 {
		return errors.New("kfaults must be >= 0")
	}
	if r.From != "" && !r.Reachable {
		return errors.New("-from seeds the -reachable exploration; add -reachable or drop -from")
	}
	return nil
}

// identity is the normalized request stripped of execution details
// (Workers, TimeoutMS) — the value echoed in results and hashed into the
// job key, so runs differing only in execution tuning share one job and
// byte-identical result documents.
func (r Request) identity() Request {
	r = r.normalize()
	r.Workers = 0
	r.TimeoutMS = 0
	return r
}

// buildInstance constructs the algorithm and policy via cli's shared
// instance builders.
func buildInstance(r Request) (protocol.Algorithm, scheduler.Policy, error) {
	spec := cli.Spec{Algorithm: r.Alg, N: r.N, Topology: r.Topology, K: r.K,
		Transform: r.Transform, Bias: r.Bias, Seed: r.Seed}
	a, err := spec.Build()
	if err != nil {
		return nil, nil, err
	}
	pol, err := cli.BuildPolicy(r.Policy)
	if err != nil {
		return nil, nil, err
	}
	return a, pol, nil
}

// jobKey derives the canonical dedupe identity of a request: the
// content-addressed space-cache key of the (algorithm, instance, policy)
// triple — the same identity the disk cache files carry — extended with
// the mode parameters that select what is computed over that space. Two
// independently submitted requests for the same work collide on it.
func jobKey(id Request, a protocol.Algorithm, pol scheduler.Policy) string {
	kf, km := -1, -1
	if id.KFaults != nil {
		kf = *id.KFaults
	}
	if id.KMax != nil {
		km = *id.KMax
	}
	key := fmt.Sprintf("%s|mode=%s|reachable=%t|from=%s|kfaults=%d|kmax=%d|max=%d",
		spacecache.Key(a, pol), id.Mode, id.Reachable, id.From, kf, km, id.MaxStates)
	if id.Mode == ModeMC {
		// The sampling parameters select what mc mode computes over the
		// space, so they split identities exactly like the fault radii do.
		key += fmt.Sprintf("|trials=%d|ci=%g|mcsteps=%d|mcseed=%d", id.Trials, id.CI, id.MCMaxSteps, id.Seed)
	}
	return key
}
