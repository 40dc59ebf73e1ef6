package statespace_test

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/core"
	"weakstab/internal/protocol"
	"weakstab/internal/scheduler"
	"weakstab/internal/spacecache"
	"weakstab/internal/statespace"
)

// TestLoaderModes: the serialized bytes of a full space and of a closure
// load to the built arrays, bit for bit, and to the built space's report
// in each of the loader's four uses — aliased from an 8-aligned buffer,
// copied from a buffer one byte off, trusted, and through a spacecache
// with mmap off. Only the aliased loads handed an unmap function are
// Mapped, and every unmap handed to Map runs exactly once.
func TestLoaderModes(t *testing.T) {
	ctx := context.Background()
	a, err := tokenring.New(5)
	if err != nil {
		t.Fatal(err)
	}
	pol := scheduler.DistributedPolicy
	seeds := []int64{0, 1, 7, 13}
	full, err := statespace.Build(a, pol, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	closure, err := statespace.BuildFromContext(ctx, a, pol, seeds, statespace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []protocol.Configuration
	for _, g := range seeds {
		cfgs = append(cfgs, full.Config(int(g)))
	}

	for _, built := range []*statespace.Space{full, closure} {
		kind := "full space"
		if built.Globals() != nil {
			kind = "closure"
		}
		var buf bytes.Buffer
		if _, err := built.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		want, err := core.AnalyzeSpaceContext(ctx, built)
		if err != nil {
			t.Fatal(err)
		}
		cache, err := spacecache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cache.SetMmap(false)

		for _, tc := range []struct {
			name   string
			mapped bool
			unmaps int // the spacecache's read buffer needs no release
			load   func(unmap func() error) (*statespace.Space, error)
		}{
			{"aliased", true, 1, func(unmap func() error) (*statespace.Space, error) {
				return statespace.Map(bufferAt(data, 0), a, pol, 0, 0, false, unmap)
			}},
			{"copied", false, 1, func(unmap func() error) (*statespace.Space, error) {
				return statespace.Map(bufferAt(data, 1), a, pol, 0, 0, false, unmap)
			}},
			{"trusted", true, 1, func(unmap func() error) (*statespace.Space, error) {
				return statespace.Map(bufferAt(data, 0), a, pol, 0, 0, true, unmap)
			}},
			{"spacecache without mmap", false, 0, func(func() error) (*statespace.Space, error) {
				build := func() (*statespace.Space, bool, error) {
					if built == full {
						return cache.BuildSpaceContext(ctx, a, pol, statespace.Options{})
					}
					return cache.BuildSubSpaceFromConfigsContext(ctx, a, pol, cfgs, statespace.Options{})
				}
				if _, hit, err := build(); err != nil || hit {
					t.Fatalf("cold build: hit %v, err %v", hit, err)
				}
				sp, hit, err := build()
				if err == nil && !hit {
					t.Fatal("warm build missed the cache")
				}
				return sp, err
			}},
		} {
			unmaps := 0
			got, err := tc.load(func() error { unmaps++; return nil })
			if err != nil {
				t.Fatalf("%s, %s: %v", kind, tc.name, err)
			}
			if got.Mapped() != tc.mapped {
				t.Errorf("%s, %s: Mapped() = %v, want %v", kind, tc.name, got.Mapped(), tc.mapped)
			}
			off, succ, _ := got.CSR()
			wantOff, wantSucc, _ := built.CSR()
			if got.States != built.States || !slices.Equal(off, wantOff) || !slices.Equal(succ, wantSucc) ||
				!sameProbs(got, built) || !slices.Equal(got.Legit, built.Legit) ||
				!slices.Equal(got.Globals(), built.Globals()) {
				t.Errorf("%s, %s: loaded arrays differ from the built ones", kind, tc.name)
			}
			rep, err := core.AnalyzeSpaceContext(ctx, got)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Errorf("%s, %s: report differs:\n%+v\n%+v", kind, tc.name, rep, want)
			}
			if err := got.Close(); err != nil {
				t.Fatal(err)
			}
			if unmaps != tc.unmaps {
				t.Errorf("%s, %s: unmap ran %d times, want %d", kind, tc.name, unmaps, tc.unmaps)
			}
		}
	}
}
