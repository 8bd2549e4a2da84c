package dedup

// defaultMemoCap bounds the memo at ~1M entries in total across the
// workers unless ScoreOpts says otherwise.
const defaultMemoCap = 1 << 20

// memoKey is the canonical key of an unordered pair of interned values:
// min<<32 | max, so (a, b) and (b, a) share one entry. That is sound only
// because every kernel the engine runs is bit-symmetric — kernel(a, b) and
// kernel(b, a) are the same float (FuzzEngineKernelSymmetric, and
// FuzzStringKernels/FuzzTokenKernels in internal/simil).
func memoKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// memo is one worker's value-pair similarity cache. Voter columns repeat
// values heavily — city, last name, zip — so the same value pair recurs
// across thousands of candidate pairs; caching it turns repeated DP work
// into a map read. Each worker owns its memo, so it takes no lock. It is
// bounded: once full, new results are returned but not stored (counted as
// skips), which keeps memory flat without evictions. Because every measure
// is a pure function, what a memo holds — which differs between worker
// schedules — can never change a score, only how often it is recomputed.
type memo struct {
	m   map[uint64]float64
	cap int // entries; negative disables caching

	hits, misses, skips int64
}

// memoCapPerWorker splits a resolved MemoCap across the workers: a
// positive total leaves each worker at least one entry, a negative one
// disables every memo.
func memoCapPerWorker(total, workers int) int {
	if total < 0 {
		return -1
	}
	return max(total/max(workers, 1), 1)
}

// put stores a computed similarity unless the memo is full or disabled,
// counting a skip then.
func (m *memo) put(k uint64, v float64) {
	if len(m.m) >= m.cap {
		m.skips++
		return
	}
	m.m[k] = v
}
