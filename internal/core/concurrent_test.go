package core

import (
	"reflect"
	"sync"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

// TestConcurrentAnalysesShareOneSpace runs two analyses of one fresh space
// at once: both race to compute the space's memoized passes, and both must
// return the report of an analysis over a separately built space. The
// race-enabled CI job runs this under the race detector.
func TestConcurrentAnalysesShareOneSpace(t *testing.T) {
	a, err := tokenring.New(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []scheduler.Policy{scheduler.CentralPolicy, scheduler.SynchronousPolicy} {
		want, err := analyzeFull(t, a, pol, statespace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts, err := statespace.BuildContext(t.Context(), a, pol, statespace.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reps := make([]*Report, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reps[i], errs[i] = AnalyzeSpaceContext(t.Context(), ts)
			}()
		}
		wg.Wait()
		for i, rep := range reps {
			if errs[i] != nil {
				t.Fatalf("%s: analysis %d: %v", pol.Name(), i, errs[i])
			}
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("%s: concurrent analysis %d differs:\n%+v\nwant\n%+v", pol.Name(), i, rep, want)
			}
		}
	}
}
