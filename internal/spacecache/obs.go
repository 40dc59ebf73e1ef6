// Cache-traffic instrumentation. Every load resolves to exactly one
// cache.hit (with the materialization mode, mmap or decode) or
// cache.miss event, stores emit cache.store, and GC emits cache.evict
// per deleted entry; the aggregate counters (cache.hits, cache.misses,
// cache.hits.{mmap,decode}, cache.stores, cache.evictions,
// cache.bytes_loaded) feed the run manifest's hit-ratio rate. The whole
// surface is guarded on an enabled observer, so a run without
// observability pays one pointer check per cache operation.
package spacecache

import "weakstab/internal/obs"

func observeLoad(o *obs.Observer, kind, key, mode string, hit bool, bytes int64) {
	if !o.On() {
		return
	}
	if !hit {
		o.Counter("cache.misses").Add(1)
		o.Emit("cache.miss", obs.CacheEvent{Kind: kind, Key: key})
		return
	}
	o.Counter("cache.hits").Add(1)
	if mode == "mmap" {
		o.Counter("cache.hits.mmap").Add(1)
	} else {
		o.Counter("cache.hits.decode").Add(1)
	}
	o.Counter("cache.bytes_loaded").Add(bytes)
	o.Emit("cache.hit", obs.CacheEvent{Kind: kind, Key: key, Mode: mode, Bytes: bytes})
}

func observeStore(o *obs.Observer, kind, key string) {
	if !o.On() {
		return
	}
	o.Counter("cache.stores").Add(1)
	o.Emit("cache.store", obs.CacheEvent{Kind: kind, Key: key})
}

func observeEvict(o *obs.Observer, e Entry) {
	if !o.On() {
		return
	}
	o.Counter("cache.evictions").Add(1)
	o.Counter("cache.bytes_evicted").Add(e.Bytes)
	o.Emit("cache.evict", obs.CacheEvent{Kind: e.Kind, Key: e.Key, Bytes: e.Bytes})
}
