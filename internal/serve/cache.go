package serve

import (
	"sync"
	"sync/atomic"
)

// The exact prediction cache. Design spaces are finite and discrete,
// and every prediction is a pure function of (model version, flat
// space index) — so memoization is *exact*, not approximate: a hit
// returns the same bits the ensemble would have produced, proven by
// the bit-identity tests in cache_test.go. Under zipf-shaped
// production traffic the hot head of the space is answered without
// touching the ensemble at all.
//
// The cache is sharded to keep lock contention off the hot path and
// uses CLOCK eviction: a hit sets a reference bit instead of reordering
// a list, so reads stay allocation-free and O(1) under one short
// critical section. Keys carry the model *version*, so a hot reload
// (see reload.go) implicitly invalidates every stale entry — no flush,
// no epoch protocol; old entries simply stop being addressed and
// rotate out under CLOCK pressure.

// cacheKey addresses one exact prediction.
type cacheKey struct {
	version int64
	index   int
}

// hash spreads keys across shards. splitmix64 finalizer over the mixed
// fields; adjacent indices (the common batch shape) land on different
// shards.
func (k cacheKey) hash() uint64 {
	h := uint64(k.index) ^ uint64(k.version)<<20
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// cacheVal is the memoized prediction.
type cacheVal struct {
	mean, variance float64
}

// cacheShard is one CLOCK ring: slot storage plus a key→slot index.
type cacheShard struct {
	mu   sync.Mutex
	idx  map[cacheKey]int32
	keys []cacheKey
	vals []cacheVal
	ref  []bool
	hand int
	max  int
}

func (sh *cacheShard) get(k cacheKey) (cacheVal, bool) {
	sh.mu.Lock()
	slot, ok := sh.idx[k]
	if !ok {
		sh.mu.Unlock()
		return cacheVal{}, false
	}
	sh.ref[slot] = true
	v := sh.vals[slot]
	sh.mu.Unlock()
	return v, true
}

// put inserts or refreshes k and reports whether an entry was evicted.
func (sh *cacheShard) put(k cacheKey, v cacheVal) (evicted bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if slot, ok := sh.idx[k]; ok {
		sh.vals[slot] = v
		sh.ref[slot] = true
		return false
	}
	if len(sh.keys) < sh.max {
		sh.idx[k] = int32(len(sh.keys))
		sh.keys = append(sh.keys, k)
		sh.vals = append(sh.vals, v)
		sh.ref = append(sh.ref, false)
		return false
	}
	// CLOCK: sweep the hand past recently-referenced slots, clearing
	// their bits; the first unreferenced slot is the victim. Bounded:
	// after one full lap every bit is clear.
	for sh.ref[sh.hand] {
		sh.ref[sh.hand] = false
		sh.hand = (sh.hand + 1) % len(sh.keys)
	}
	victim := sh.hand
	sh.hand = (sh.hand + 1) % len(sh.keys)
	delete(sh.idx, sh.keys[victim])
	sh.keys[victim] = k
	sh.vals[victim] = v
	sh.ref[victim] = false
	sh.idx[k] = int32(victim)
	return true
}

func (sh *cacheShard) len() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.keys)
}

// predCacheShards keeps per-shard lock scope small without making tiny
// caches degenerate (a shard always holds at least a few entries).
const predCacheShards = 16

// predCache is the bounded, sharded exact prediction cache.
type predCache struct {
	shards [predCacheShards]cacheShard
	cap    int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// newPredCache bounds the cache at entries predictions total. entries
// <= 0 returns nil: a nil *predCache is a valid always-miss cache only
// in the sense that callers must check for nil before use.
func newPredCache(entries int) *predCache {
	if entries <= 0 {
		return nil
	}
	c := &predCache{cap: entries}
	per := (entries + predCacheShards - 1) / predCacheShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = cacheShard{idx: make(map[cacheKey]int32, per), max: per}
	}
	return c
}

func (c *predCache) shard(k cacheKey) *cacheShard {
	return &c.shards[k.hash()%predCacheShards]
}

// get looks k up and counts the outcome. The hit path is
// allocation-free: comparable-struct map lookup, no boxing, no list
// surgery (CLOCK sets a bit instead).
func (c *predCache) get(k cacheKey) (cacheVal, bool) {
	v, ok := c.shard(k).get(k)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// peek is get without touching the hit/miss counters — the coalescer's
// flush-time recheck (another request may have filled the key between
// admission and flush) must not double-count a request's outcome.
func (c *predCache) peek(k cacheKey) (cacheVal, bool) {
	return c.shard(k).get(k)
}

// put memoizes one computed prediction.
func (c *predCache) put(k cacheKey, v cacheVal) {
	if c.shard(k).put(k, v) {
		c.evictions.Add(1)
	}
}

// CacheStats is the cache's observable state, exported through
// /metrics.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

func (c *predCache) stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Capacity:  c.cap,
	}
	for i := range c.shards {
		st.Entries += c.shards[i].len()
	}
	return st
}
