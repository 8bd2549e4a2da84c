// Package blocking is the candidate-generation layer of the detection
// pipeline: it decides which record pairs the §6.5 scoring engine ever
// sees. The paper validates its generated NC datasets with multi-pass
// Sorted Neighborhood blocking — one pass per sorting key, window w = 20 —
// and reports that the reduction loses no true duplicates; at the paper's
// 507 M-row framing, candidate generation (not pair scoring) is the cost
// that decides whether full-corpus deduplication is feasible at all.
//
// Multi-pass SNM is the one blocker: one Pass per sorting key — the k most
// unique attributes (EntropyPasses, the paper's setup) or composed key
// specs (ParsePasses: attribute values, concatenations, phonetic codes,
// prefixes, e.g. lastname+zip or Soundex keys) — each sliding a window over
// the key-sorted order (snm.go).
//
// GenerateStream (stream.go) is the one implementation: it runs every pass
// with each stage sharded across workers and k-way merges the per-pass
// sorted runs with duplicates dropped at the merge point, so downstream
// scoring sees each candidate pair exactly once, in (I, J) order, as
// bounded batches. Generate drains that stream into a slice for callers
// that need the whole pair set. GenerateSeq is the independent sequential
// reference — plain loops, no pools, no merges — that both are pinned to,
// pairs and Stats, for any worker count (under -race by the package tests
// and the testkit differential oracle, `make conformance`).
package blocking

import (
	"runtime"
	"sort"
	"sync"

	"repro/internal/counter"
	"repro/internal/dedup"
)

// Pass is one Sorted-Neighborhood pass: records are sorted by Key and
// every pair within the sliding window becomes a candidate.
type Pass struct {
	// Name labels the pass in stats, benchmarks and metrics.
	Name string
	// Key derives the sorting key from a record's attribute values.
	Key KeyFunc
}

// DefaultWindow is the paper's SNM window (§6.5, w = 20).
const DefaultWindow = 20

// Config selects and tunes the passes of one Generate run.
type Config struct {
	// Passes are the SNM passes; empty yields no candidates.
	Passes []Pass
	// Window is the SNM window size of every pass; 0 selects
	// DefaultWindow, values below 2 clamp to 2.
	Window int
	// Workers shards every stage; <= 0 selects GOMAXPROCS, 1 runs every
	// stage inline on the producer (GenerateSeq is the independent
	// sequential reference, not this).
	Workers int
	// Observer, when set, receives the blocking_* counters after the run.
	Observer counter.Sink
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) window() int {
	if c.Window == 0 {
		return DefaultWindow
	}
	return max(c.Window, 2)
}

// PassStats is one pass's share of the candidate stream, before the
// cross-pass deduplication.
type PassStats struct {
	Name   string
	Window int
	Pairs  int
}

// Stats describes one blocking run. Every field is a pure function of the
// dataset and the configuration — never of the worker count — so the
// differential oracle compares stats alongside the pair set.
type Stats struct {
	Records int
	// SNMPasses has one entry per configured pass, in pass order.
	SNMPasses []PassStats
	// Emitted is the total pre-dedupe candidate stream; Unique is the
	// final pair count after the deduplicating merge.
	Emitted int
	Unique  int
}

// Generate drains GenerateStream into a slice: the deduplicated union of
// the configured passes' candidate pairs, sorted by (I, J), with the
// run's Stats and — when cfg.Observer is set — the stream's counters. For
// callers that need the pair set itself; scoring consumes the stream
// directly and never holds it.
func Generate(ds *dedup.Dataset, cfg Config) ([]dedup.Pair, Stats) {
	s := GenerateStream(ds, cfg, StreamOpts{})
	var pairs []dedup.Pair
	for batch := range s.C {
		pairs = append(pairs, batch...)
		s.Recycle(batch)
	}
	return pairs, s.Stats()
}

// GenerateSeq is the sequential reference: the same passes implemented
// with plain loops and a sort+dedupe union, no pools, no merges. The
// package tests and the testkit differential oracle pin GenerateStream —
// and Generate, its drain — to it bit for bit.
func GenerateSeq(ds *dedup.Dataset, cfg Config) ([]dedup.Pair, Stats) {
	stats := Stats{Records: len(ds.Records)}
	var all []dedup.Pair
	for _, p := range cfg.Passes {
		w := cfg.window()
		pairs := snmPassSeq(ds, p.Key, w)
		stats.SNMPasses = append(stats.SNMPasses, PassStats{Name: p.Name, Window: w, Pairs: len(pairs)})
		all = append(all, pairs...)
	}
	stats.Emitted = len(all)
	sort.Slice(all, func(x, y int) bool {
		if all[x].I != all[y].I {
			return all[x].I < all[y].I
		}
		return all[x].J < all[y].J
	})
	out := all[:0]
	for i, p := range all {
		if i == 0 || p != all[i-1] {
			out = append(out, p)
		}
	}
	stats.Unique = len(out)
	report(cfg.Observer, stats)
	return out, stats
}

// report exports a run's counters as the blocking_pipeline_total family.
func report(obs counter.Sink, s Stats) {
	counter.Add(obs, "blocking_runs", 1)
	counter.Add(obs, "blocking_records", int64(s.Records))
	counter.Add(obs, "blocking_snm_passes", int64(len(s.SNMPasses)))
	for _, p := range s.SNMPasses {
		counter.Add(obs, "blocking_snm_pairs", int64(p.Pairs))
	}
	counter.Add(obs, "blocking_pairs_emitted", int64(s.Emitted))
	counter.Add(obs, "blocking_pairs_unique", int64(s.Unique))
}

// parallelRanges splits [0, n) into one contiguous range per worker and
// runs fn on each concurrently. The split depends only on n and workers,
// so index-addressed writes are deterministic.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// pairLess is the total order every sort and merge of the package uses.
func pairLess(a, b dedup.Pair) bool {
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

// sortChunks sorts s in place under less: one contiguous chunk per worker
// sorted concurrently, then a sequential k-way merge through a scratch
// slice. less must be a total order (no two distinct elements compare
// equal), which makes the result independent of the chunking and the
// schedule. K is the worker count, so the linear scan over chunk heads
// stays cheap.
func sortChunks[T any](s []T, workers int, less func(a, b T) bool) {
	n := len(s)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		sort.Slice(s, func(x, y int) bool { return less(s[x], s[y]) })
		return
	}
	parallelRanges(n, workers, func(lo, hi int) {
		part := s[lo:hi]
		sort.Slice(part, func(x, y int) bool { return less(part[x], part[y]) })
	})
	// heads[w] walks chunk w, which parallelRanges cut at w*n/workers.
	heads := make([]int, workers)
	for w := range heads {
		heads[w] = w * n / workers
	}
	merged := make([]T, 0, n)
	for len(merged) < n {
		best := -1
		for w, h := range heads {
			if h == (w+1)*n/workers {
				continue
			}
			if best < 0 || less(s[h], s[heads[best]]) {
				best = w
			}
		}
		merged = append(merged, s[heads[best]])
		heads[best]++
	}
	copy(s, merged)
}
