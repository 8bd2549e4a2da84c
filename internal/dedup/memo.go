package dedup

import (
	"sync"
	"sync/atomic"
)

// memoShardCount shards the value-pair memo to keep lock contention off the
// scoring hot path; must be a power of two.
const memoShardCount = 64

// defaultMemoCap bounds the cache at ~1M entries (~48 MB worst case)
// unless ScoreOpts says otherwise.
const defaultMemoCap = 1 << 20

// memoKey identifies one ordered pair of interned column values. The pair
// is not canonicalized, so (a, b) and (b, a) are cached apart. Every kernel
// the engine runs is fuzz-checked bit-symmetric (FuzzStringKernels,
// FuzzTokenKernels), so canonical keys would return the same floats; they
// are left for a change that measures what they save.
type memoKey struct {
	col  int32
	a, b int32
}

type memoShard struct {
	mu sync.RWMutex
	m  map[memoKey]float64
}

// memoCache memoizes value-pair similarities. Voter columns repeat values
// heavily — city, last name, zip — so the same (column, a, b) comparison
// recurs across thousands of candidate pairs; caching it turns repeated DP
// work into a map read. The cache is bounded: once a shard is full new
// results are returned but not stored (counted as skips), which keeps
// memory flat without evictions. Because every measure is a pure function,
// hit/miss timing — which differs between worker schedules — can never
// change a score, only how often it is recomputed.
type memoCache struct {
	shards      [memoShardCount]memoShard
	capPerShard int

	hits, misses, skips atomic.Int64
}

// newMemoCache sizes the cache for about totalCap entries; totalCap 0
// selects the default, negative disables caching.
func newMemoCache(totalCap int) *memoCache {
	if totalCap == 0 {
		totalCap = defaultMemoCap
	}
	c := &memoCache{capPerShard: totalCap / memoShardCount}
	if totalCap > 0 && c.capPerShard == 0 {
		c.capPerShard = 1
	}
	for i := range c.shards {
		c.shards[i].m = make(map[memoKey]float64)
	}
	return c
}

// shard picks the shard of a key by a cheap multiplicative mix.
func (c *memoCache) shard(k memoKey) *memoShard {
	h := uint32(k.col)*0x9E3779B1 ^ uint32(k.a)*0x85EBCA77 ^ uint32(k.b)*0xC2B2AE3D
	return &c.shards[h&(memoShardCount-1)]
}

func (c *memoCache) get(col, a, b int32) (float64, bool) {
	if c.capPerShard < 0 {
		return 0, false
	}
	s := c.shard(memoKey{col, a, b})
	s.mu.RLock()
	v, ok := s.m[memoKey{col, a, b}]
	s.mu.RUnlock()
	return v, ok
}

// put stores a computed similarity unless the shard is at capacity;
// it reports whether the value was stored.
func (c *memoCache) put(col, a, b int32, v float64) bool {
	if c.capPerShard < 0 {
		return false
	}
	s := c.shard(memoKey{col, a, b})
	s.mu.Lock()
	if len(s.m) >= c.capPerShard {
		s.mu.Unlock()
		return false
	}
	s.m[memoKey{col, a, b}] = v
	s.mu.Unlock()
	return true
}
