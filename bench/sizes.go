package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"strings"

	"weakstab/internal/markov"
	"weakstab/internal/service"
	"weakstab/internal/statespace"
)

// sizes fixes every instance the workloads run. fullSizes is the
// benchmark; tinySizes runs the same code paths in milliseconds, for the
// tests and for the probes a traced run makes of layers its own workload
// does not reach.
type sizes struct {
	name   string
	report []service.Request // one report-full op executes all of them
	sweep  []service.Request // one sweep-ball op executes all of them
	mc     service.Request   // Seed is the workload seed plus the op index
	netsim netsimSpec
	pool   []service.Request // serve-mixed identities, most popular first
	lru    int               // serve-mixed result LRU size
	// traceOps is the fixed op count of a traced run per workload, so
	// that its counts repeat exactly.
	traceOps map[string]int
}

// netsimSpec is one netsim-restab op: Trials restabilizations of a
// coloring ring of N processes from a legitimate configuration with
// Corrupt processes corrupted, over the Faults stack.
type netsimSpec struct {
	N, Trials, Corrupt, CheckEvery int
	Faults                         string
}

func intp(v int) *int { return &v }

func reportReq(alg string, n, k int, topology, policy string) service.Request {
	return service.Request{Alg: alg, N: n, K: k, Topology: topology, Policy: policy}
}

func sweepReq(alg string, n, k int, policy string, kmax int) service.Request {
	return service.Request{Alg: alg, N: n, K: k, Policy: policy, Mode: service.ModeSweep, KMax: intp(kmax)}
}

// mcReq is an mc-mode identity of the serve pool. Its walker seed is part
// of the identity, so it is fixed.
func mcReq(alg string, n, k int, policy string, trials int) service.Request {
	return service.Request{Alg: alg, N: n, K: k, Policy: policy, Mode: service.ModeMC, Trials: trials, Seed: 1}
}

var fullSizes = &sizes{
	name: "full",
	report: []service.Request{
		reportReq("tokenring", 11, 3, "", "central"),
		reportReq("tokenring", 9, 3, "", "distributed"),
		reportReq("dijkstra", 6, 6, "", "central"),
		reportReq("leadertree", 8, 0, "figure2", "distributed"),
	},
	sweep: []service.Request{
		sweepReq("dijkstra", 8, 8, "central", 2),
		{Alg: "tokenring", N: 16, K: 3, Policy: "central", Reachable: true, KFaults: intp(2)},
	},
	mc:     service.Request{Alg: "herman", N: 11, Policy: "synchronous", Mode: service.ModeMC, Trials: 1_000_000},
	netsim: netsimSpec{N: 100_000, Trials: 1, Corrupt: 10_000, CheckEvery: 2, Faults: "loss:0.05"},
	pool: []service.Request{
		reportReq("tokenring", 8, 3, "", "central"),
		reportReq("dijkstra", 6, 5, "", "central"),
		reportReq("herman", 9, 0, "", "synchronous"),
		reportReq("leadertree", 8, 0, "figure2", "central"),
		reportReq("coloring", 8, 0, "ring", "central"),
		reportReq("tokenring", 8, 3, "", "distributed"),
		sweepReq("dijkstra", 6, 6, "central", 2),
		mcReq("herman", 11, 0, "synchronous", 2000),
		reportReq("dijkstra", 6, 5, "", "distributed"),
		reportReq("leadertree", 7, 0, "chain", "distributed"),
		sweepReq("tokenring", 10, 3, "central", 2),
		reportReq("tokenring", 10, 3, "", "central"),
		mcReq("tokenring", 8, 3, "central", 2000),
		reportReq("coloring", 8, 0, "ring", "distributed"),
		reportReq("herman", 11, 0, "", "synchronous"),
		sweepReq("coloring", 7, 0, "distributed", 2),
		reportReq("dijkstra", 7, 4, "", "central"),
		mcReq("herman", 9, 0, "synchronous", 2000),
		reportReq("leadertree", 8, 0, "figure2", "distributed"),
		reportReq("dijkstra", 5, 5, "", "distributed"),
		sweepReq("dijkstra", 6, 6, "distributed", 2),
		mcReq("dijkstra", 6, 5, "distributed", 2000),
		reportReq("coloring", 9, 0, "chain", "central"),
		reportReq("leadertree", 8, 0, "star", "distributed"),
	},
	lru:      8,
	traceOps: map[string]int{wReport: 6, wSweep: 3, wMC: 12, wNetsim: 6, wServe: 1000},
}

var tinySizes = &sizes{
	name: "tiny",
	report: []service.Request{
		reportReq("tokenring", 5, 3, "", "central"),
		reportReq("tokenring", 4, 3, "", "distributed"),
		reportReq("dijkstra", 3, 3, "", "central"),
		reportReq("leadertree", 4, 0, "chain", "distributed"),
	},
	sweep: []service.Request{
		sweepReq("dijkstra", 4, 4, "central", 1),
		{Alg: "tokenring", N: 7, K: 3, Policy: "central", Reachable: true, KFaults: intp(1)},
	},
	mc:     service.Request{Alg: "herman", N: 5, Policy: "synchronous", Mode: service.ModeMC, Trials: 1000},
	netsim: netsimSpec{N: 400, Trials: 1, Corrupt: 40, CheckEvery: 2, Faults: "loss:0.05"},
	pool: []service.Request{
		reportReq("tokenring", 5, 3, "", "central"),
		sweepReq("dijkstra", 4, 4, "central", 1),
		mcReq("herman", 5, 0, "synchronous", 500),
		reportReq("coloring", 4, 0, "ring", "distributed"),
	},
	lru:      2,
	traceOps: map[string]int{wReport: 2, wSweep: 1, wMC: 3, wNetsim: 2, wServe: 30},
}

// label names a request's golden file.
func label(r service.Request) string {
	parts := []string{r.Alg, fmt.Sprintf("n%d", r.N)}
	if r.K > 0 {
		parts = append(parts, fmt.Sprintf("k%d", r.K))
	}
	if r.Topology != "" {
		parts = append(parts, r.Topology)
	}
	parts = append(parts, r.Policy)
	switch {
	case r.Mode == service.ModeMC:
		parts = append(parts, fmt.Sprintf("mc%d", r.Trials))
	case r.KMax != nil:
		parts = append(parts, fmt.Sprintf("kmax%d", *r.KMax))
	case r.KFaults != nil:
		parts = append(parts, fmt.Sprintf("reachable-kfaults%d", *r.KFaults))
	default:
		parts = append(parts, "report")
	}
	return strings.Join(parts, "-")
}

//go:embed testdata
var testdata embed.FS

func goldenPath(sz *sizes, workload, name string) string {
	return path.Join("testdata", sz.name, workload, name+".json")
}

// golden returns the committed result document of r in workload's
// golden set.
func golden(sz *sizes, workload string, r service.Request) ([]byte, error) {
	b, err := testdata.ReadFile(goldenPath(sz, workload, label(r)))
	if err != nil {
		return nil, fmt.Errorf("golden: %w (regenerate with -write-goldens bench)", err)
	}
	return b, nil
}

// exactMean is the exact mean hitting time of the mc workload's
// instance, over its non-legitimate configurations.
type exactMean struct {
	Instance string  `json:"instance"`
	Mean     float64 `json:"mean"`
}

func loadExactMean(sz *sizes) (exactMean, error) {
	var em exactMean
	b, err := testdata.ReadFile(goldenPath(sz, wMC, "exact"))
	if err != nil {
		return em, fmt.Errorf("golden: %w (regenerate with -write-goldens bench)", err)
	}
	return em, json.Unmarshal(b, &em)
}

// writeGoldens regenerates every golden of both size sets under
// dir/testdata from the code as it stands, replacing what is there: the result documents of the
// report-full, sweep-ball and serve-mixed identities, and the exact
// mean the mc-herman estimates are checked against.
func writeGoldens(dir string) error {
	for _, sz := range []*sizes{fullSizes, tinySizes} {
		if err := os.RemoveAll(filepath.Join(dir, "testdata", sz.name)); err != nil {
			return err
		}
		sets := map[string][]service.Request{wReport: sz.report, wSweep: sz.sweep, wServe: sz.pool}
		for workload, reqs := range sets {
			for _, r := range reqs {
				resp, err := service.Execute(bg, r, service.Deps{})
				if err != nil {
					return fmt.Errorf("%s: %w", label(r), err)
				}
				var sb strings.Builder
				if err := resp.WriteJSON(&sb); err != nil {
					return err
				}
				if err := writeFile(filepath.Join(dir, goldenPath(sz, workload, label(r))), []byte(sb.String())); err != nil {
					return err
				}
			}
		}
		a, pol, err := buildInstance(sz.mc)
		if err != nil {
			return err
		}
		sp, err := statespace.Build(a, pol, statespace.Options{})
		if err != nil {
			return err
		}
		chain, err := markov.FromSpace(sp)
		if err != nil {
			return err
		}
		target := markov.TargetFromSpace(sp)
		h, err := chain.HittingTimes(target)
		if err != nil {
			return err
		}
		b, err := json.MarshalIndent(exactMean{Instance: a.Name(), Mean: markov.Summarize(h, target).Mean}, "", "  ")
		if err != nil {
			return err
		}
		if err := writeFile(filepath.Join(dir, goldenPath(sz, wMC, "exact")), append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(name string, b []byte) error {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return err
	}
	return os.WriteFile(name, b, 0o644)
}
