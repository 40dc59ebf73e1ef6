package core

import (
	"reflect"
	"testing"

	"weakstab/internal/algorithms/dijkstra"
	"weakstab/internal/algorithms/herman"
	"weakstab/internal/algorithms/leadertree"
	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/checker"
	"weakstab/internal/graph"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
	"weakstab/internal/transformer"
)

// TestAnalyzeWorkerInvariance checks that the checker phase's side-by-side
// passes move nothing: the report and the strongly fair lasso witness are
// the same at 1, 2 and 4 workers, and so are the k-fault sweep's verdicts
// and closure sizes at 1 and 4. The race-enabled CI job runs it too.
func TestAnalyzeWorkerInvariance(t *testing.T) {
	tr, err := tokenring.NewWithModulus(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := leadertree.New(graph.Figure2Tree())
	if err != nil {
		t.Fatal(err)
	}
	tr5, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := herman.New(5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range []struct {
		a   protocol.Algorithm
		pol scheduler.Policy
	}{
		{tr, scheduler.CentralPolicy},
		{tr, scheduler.DistributedPolicy},
		{lt, scheduler.DistributedPolicy},
		{transformer.New(tr5), scheduler.DistributedPolicy},
		{hm, scheduler.SynchronousPolicy},
	} {
		name := c.a.Name() + "/" + c.pol.Name()
		var (
			want      *Report
			wantLasso checker.FairLasso
		)
		for _, workers := range []int{1, 2, 4} {
			ts, err := statespace.BuildContext(t.Context(), c.a, c.pol, statespace.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := AnalyzeSpaceContext(t.Context(), ts)
			if err != nil {
				t.Fatal(err)
			}
			lasso := checker.FromSpace(ts).FindStronglyFairLasso()
			ts.Close()
			if workers == 1 {
				want, wantLasso = rep, lasso
				found = found || lasso.Found
				continue
			}
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("%s: report at %d workers differs:\n%+v\nat 1 worker\n%+v", name, workers, rep, want)
			}
			if !reflect.DeepEqual(lasso, wantLasso) {
				t.Fatalf("%s: lasso at %d workers differs:\n%+v\nat 1 worker\n%+v", name, workers, lasso, wantLasso)
			}
		}
	}
	if !found {
		t.Fatal("no instance has a strongly fair lasso to compare")
	}

	dk, err := dijkstra.New(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	var want *checker.SweepResult
	for _, workers := range []int{1, 4} {
		res, err := checker.SweepKFaultsContext(t.Context(), nil, dk, scheduler.CentralPolicy, 2, statespace.Options{Workers: workers}, false)
		if err != nil {
			t.Fatal(err)
		}
		res.Sub.Close()
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(res.Verdicts, want.Verdicts) || !reflect.DeepEqual(res.ClosureStates, want.ClosureStates) {
			t.Fatalf("dijkstra(6,6) sweep at %d workers: verdicts %+v, closures %v; at 1 worker %+v, %v",
				workers, res.Verdicts, res.ClosureStates, want.Verdicts, want.ClosureStates)
		}
	}
}
