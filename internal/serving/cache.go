package serving

import (
	"container/list"
	"sync"

	"repro/internal/counter"
)

// CacheKey identifies one cached response. The generation is part of the
// key, so a snapshot swap implicitly invalidates every cached response of
// the previous generation: stale entries can never be served, and the LRU
// discipline ages them out without any explicit flush.
type CacheKey struct {
	Generation uint64
	// Resource is the request's method plus its full URI including the
	// query string, e.g. "GET /v1/clusters/summary?minSize=2".
	Resource string
}

// CachedResponse is one stored response: the status and the exact body
// bytes. Content-Type is always application/json in this API, and the
// generation headers are re-derived from the key, so nothing else needs
// storing.
type CachedResponse struct {
	Status int
	Body   []byte
}

// cacheEntry is the list payload: key (for eviction map cleanup) + value.
type cacheEntry struct {
	key  CacheKey
	resp CachedResponse
}

// ResponseCache is a bounded LRU response cache for hot aggregate
// endpoints. The critical section is a map lookup and a list splice —
// nanoseconds — so a single mutex suffices even at high request
// concurrency; the heavy work it saves (whole-store aggregation, large
// JSON encodes) happens outside the lock exactly once per (generation,
// resource).
type ResponseCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[CacheKey]*list.Element
	obs      counter.Sink
}

// NewResponseCache returns a cache bounded to capacity entries; obs may be
// nil. Capacity must be positive.
func NewResponseCache(capacity int, obs counter.Sink) *ResponseCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ResponseCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[CacheKey]*list.Element, capacity),
		obs:      obs,
	}
}

// Get returns the cached response for the key and refreshes its recency.
// Hits and misses are counted into the cache's sink.
func (c *ResponseCache) Get(key CacheKey) (CachedResponse, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	var resp CachedResponse
	if ok {
		c.ll.MoveToFront(el)
		resp = el.Value.(*cacheEntry).resp
	}
	c.mu.Unlock()
	if ok {
		counter.Add(c.obs, CounterCacheHits, 1)
	} else {
		counter.Add(c.obs, CounterCacheMisses, 1)
	}
	return resp, ok
}

// Put stores a response under the key, evicting least-recently-used
// entries beyond capacity. Storing an existing key refreshes its value and
// recency.
func (c *ResponseCache) Put(key CacheKey, resp CachedResponse) {
	var evicted int64
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).resp = resp
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, resp: resp})
		for c.ll.Len() > c.capacity {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*cacheEntry).key)
			evicted++
		}
	}
	c.mu.Unlock()
	if evicted > 0 {
		counter.Add(c.obs, CounterCacheEvictions, evicted)
	}
}

// Len returns the current entry count.
func (c *ResponseCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
