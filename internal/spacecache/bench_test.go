package spacecache

// Cold-vs-warm benchmarks of the space cache on an acceptance-scale
// instance (tokenring N=11, modulus 3: 3^11 = 177147 configurations,
// ~10^6 transitions under the central policy). Cold is a full parallel
// exploration plus the cache write; warm is a pure load, measured on both
// buffers statespace.Map is handed — the file read into the heap and the
// zero-copy mmap (validate + alias). The serve-mixed workload of bench/
// measures the same pair end to end as spacecache.load_decode.ms and
// spacecache.load_mmap.ms.

import (
	"testing"

	"weakstab/internal/algorithms/tokenring"
	"weakstab/internal/scheduler"
	"weakstab/internal/statespace"
)

func benchInstance(b *testing.B) *tokenring.Algorithm {
	b.Helper()
	a, err := tokenring.NewWithModulus(11, 3)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkSpaceCacheCold measures the miss path: explore + persist.
func BenchmarkSpaceCacheCold(b *testing.B) {
	a := benchInstance(b)
	pol := scheduler.CentralPolicy
	c, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, err := statespace.Build(a, pol, statespace.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.StoreSpace(sp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpaceCacheWarm measures the hit path: load the persisted space.
func BenchmarkSpaceCacheWarm(b *testing.B) {
	a := benchInstance(b)
	pol := scheduler.CentralPolicy
	c, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := c.BuildSpaceContext(b.Context(), a, pol, statespace.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, ok := c.LoadSpace(a, pol, statespace.Options{})
		if !ok {
			b.Fatal("warm load missed")
		}
		if sp.States != 177147 {
			b.Fatalf("loaded %d states", sp.States)
		}
		sp.Close()
	}
}

// benchWarmLoad measures one warm load path end to end (open, validate,
// hand back a usable system, close).
func benchWarmLoad(b *testing.B, mmap bool) {
	a := benchInstance(b)
	pol := scheduler.CentralPolicy
	c, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := c.BuildSpaceContext(b.Context(), a, pol, statespace.Options{}); err != nil {
		b.Fatal(err)
	}
	c.SetMmap(mmap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, ok := c.LoadSpace(a, pol, statespace.Options{})
		if !ok {
			b.Fatal("warm load missed")
		}
		if sp.Mapped() != (mmap && mmapSupported) {
			b.Fatalf("Mapped() = %v on the mmap=%v path", sp.Mapped(), mmap)
		}
		if sp.States != 177147 {
			b.Fatalf("loaded %d states", sp.States)
		}
		sp.Close()
	}
}

// BenchmarkWarmLoadDecode is the heap path: the file is read into memory
// and statespace.Map validates it in full.
func BenchmarkWarmLoadDecode(b *testing.B) { benchWarmLoad(b, false) }

// BenchmarkWarmLoadMmap is the steady-state zero-copy path: after the
// first load validates the file in full, the validation memo recognizes
// the unchanged inode and later loads skip the O(bytes) passes — mmap,
// alias, unpack the legitimacy bits, done: the sublinear warm path.
func BenchmarkWarmLoadMmap(b *testing.B) { benchWarmLoad(b, true) }

// BenchmarkWarmLoadMmapFirst is the first mapped load in a process: the
// validation memo is empty, so the full CRC-32C pass and the structural
// validators run over the mapping before any section is trusted.
func BenchmarkWarmLoadMmapFirst(b *testing.B) {
	a := benchInstance(b)
	pol := scheduler.CentralPolicy
	c, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := c.BuildSpaceContext(b.Context(), a, pol, statespace.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh Cache instance has an empty memo, like a fresh process.
		fresh, err := Open(c.Dir())
		if err != nil {
			b.Fatal(err)
		}
		sp, ok := fresh.LoadSpace(a, pol, statespace.Options{})
		if !ok {
			b.Fatal("warm load missed")
		}
		sp.Close()
	}
}

// BenchmarkSpaceCacheKey measures the canonical hashing alone (it is on
// every load path, warm or cold).
func BenchmarkSpaceCacheKey(b *testing.B) {
	a := benchInstance(b)
	pol := scheduler.CentralPolicy
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if Key(a, pol) == "" {
			b.Fatal("empty key")
		}
	}
}
