// Package serving builds immutable, read-optimized serving snapshots of a
// test dataset — the precompute-then-serve philosophy of census-lookup
// services applied to the paper's corpus: everything the high-QPS /v1 read
// path needs (a per-NCID record-view lookup table, per-cluster score
// summaries, the summary histogram bins, and the fully marshaled payloads
// of the dataset-level endpoints) is computed once per corpus version,
// frozen into a generation-stamped Snapshot, and swapped in atomically
// behind the API. Request handlers load the current snapshot with a single
// atomic pointer read — no locking, no per-request aggregation — so a
// reload never blocks or tears a response: every byte of one response comes
// from one generation.
//
// The package also provides the bounded LRU ResponseCache for hot
// aggregate endpoints. Cache keys embed the snapshot generation, so a swap
// implicitly invalidates every cached response without any coordination.
package serving

import (
	"sync"
	"sync/atomic"

	"repro/internal/counter"
)

// Counter names of the serving_total family, reported to the sink of
// NewSource and NewResponseCache.
const (
	// CounterSwaps counts snapshot swaps (the initial publish included).
	CounterSwaps = "serving_swaps"
	// CounterCacheHits / CounterCacheMisses count response-cache lookups.
	CounterCacheHits   = "serving_cache_hits"
	CounterCacheMisses = "serving_cache_misses"
	// CounterCacheEvictions counts LRU evictions under capacity pressure.
	CounterCacheEvictions = "serving_cache_evictions"
)

// Source is the atomic publication point of serving snapshots: writers
// Swap in freshly built snapshots (serialized by a mutex), readers load the
// current one with a single lock-free atomic pointer read. Current returns
// nil until the first Swap — the readiness signal of the /v1/healthz
// endpoint.
type Source struct {
	mu  sync.Mutex // serializes Swap so generations publish in order
	cur atomic.Pointer[Snapshot]
	gen atomic.Uint64
	obs counter.Sink
}

// NewSource returns an empty source; obs may be nil.
func NewSource(obs counter.Sink) *Source { return &Source{obs: obs} }

// Current returns the latest published snapshot, or nil before the first
// Swap. The returned snapshot is immutable; callers may use it for the
// whole request without further synchronization.
func (s *Source) Current() *Snapshot { return s.cur.Load() }

// Generation returns the generation of the latest Swap (0 before the
// first).
func (s *Source) Generation() uint64 { return s.gen.Load() }

// Swap stamps the snapshot with the next generation and publishes it
// atomically, returning the assigned generation. The snapshot must not be
// shared with readers before Swap (the stamp is its last mutation).
// Concurrent Swaps are serialized, so observed generations only ever grow.
func (s *Source) Swap(snap *Snapshot) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.gen.Add(1)
	snap.generation = gen
	s.cur.Store(snap)
	counter.Add(s.obs, CounterSwaps, 1)
	return gen
}
