package dedup

import "math/bits"

// defaultMemoCap bounds the memo at ~1M entries in total across the
// workers unless ScoreOpts says otherwise.
const defaultMemoCap = 1 << 20

// memoKey is the canonical key of an unordered pair of interned values:
// min<<32 | max, so (a, b) and (b, a) share one entry. That is sound only
// because every kernel the engine runs is bit-symmetric — kernel(a, b) and
// kernel(b, a) are the same float (FuzzEngineKernelSymmetric, and
// FuzzStringKernels/FuzzTokenKernels in internal/simil). It is never 0,
// the memo's empty-slot mark, because a != b.
func memoKey(a, b int32) uint64 {
	return uint64(uint32(min(a, b)))<<32 | uint64(uint32(max(a, b)))
}

// memo is one worker's value-pair similarity cache. Voter columns repeat
// values heavily — city, last name, zip — so the same value pair recurs
// across thousands of candidate pairs; caching it turns repeated kernel work
// into a probe of a flat table. Each worker owns its memo, so it takes no
// lock. It is bounded: once full, new results are returned but not stored
// (counted as skips), which keeps memory flat without evictions. Because
// every measure is a pure function, what a memo holds — which differs
// between worker schedules — can never change a score, only how often it is
// recomputed.
//
// The table is open addressing with linear probing: a power-of-two slot
// array, indexed by the top bits of a Fibonacci hash of the key, kept at
// most half full by doubling (at three quarters full, the benchmark's churn
// workload walked three times as many slots per probe and scored up to
// 18 % slower). Key 0 marks an empty slot; memoKey never yields it,
// because equal ids never reach the memo.
type memo struct {
	slots []memoSlot
	shift uint // 64 - log2(len(slots))
	n     int  // entries held
	cap   int  // entries; negative disables caching

	hits, misses, skips int64
}

// memoSlot is one entry of the table; k == 0 marks it empty.
type memoSlot struct {
	k uint64
	v float64
}

// memoMinSlots is the first table's size: small enough that a short run's
// memo costs nothing, large enough to skip the first few doublings.
const memoMinSlots = 1 << 12

// fibHash is 2^64 divided by the golden ratio: multiplying by it spreads
// the key's bits into the product's top bits, which index the table.
const fibHash = 0x9e3779b97f4a7c15

// get returns the similarity stored under k, if any.
func (m *memo) get(k uint64) (float64, bool) {
	if m.n == 0 {
		return 0, false
	}
	s := m.slots[m.probe(k)]
	return s.v, s.k != 0
}

// probe returns the index of k's slot, or of the empty slot that ends k's
// probe sequence. The table is never full, so the walk ends.
func (m *memo) probe(k uint64) uint64 {
	mask := uint64(len(m.slots) - 1)
	i := k * fibHash >> m.shift
	for m.slots[i].k != k && m.slots[i].k != 0 {
		i = (i + 1) & mask
	}
	return i
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

// put stores a computed similarity under a key get just missed, unless the
// memo is full or disabled, counting a skip then. A table over half full
// doubles first.
func (m *memo) put(k uint64, v float64) {
	if m.n >= m.cap {
		m.skips++
		return
	}
	if 2*(m.n+1) > len(m.slots) {
		old := m.slots
		m.slots = make([]memoSlot, max(2*len(old), memoMinSlots))
		m.shift = uint(64 - bits.TrailingZeros(uint(len(m.slots))))
		for _, s := range old {
			if s.k != 0 {
				m.slots[m.probe(s.k)] = s
			}
		}
	}
	m.slots[m.probe(k)] = memoSlot{k, v}
	m.n++
}
