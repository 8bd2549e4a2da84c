// The multi-pass Sorted Neighborhood blocker. Each pass sorts the record
// indices by a key derived from the record and emits every pair within a
// sliding window over that order — the paper's own validation setup
// (§6.5: one pass per sorting key, w = 20). This file holds the sequential
// reference pass, which stable-sorts on its own, and the sharded sort of
// the streamed pass (snmSource, stream.go), which enumerates the same
// pairs from the sorted order without materializing them.

package blocking

import (
	"sort"

	"repro/internal/dedup"
)

// snmPassSeq is the sequential reference pass: derive keys, stable-sort,
// slide the window. Stable sort on key equals the (key, index) total
// order sortOrderParallel sorts by.
func snmPassSeq(ds *dedup.Dataset, key KeyFunc, window int) []dedup.Pair {
	n := len(ds.Records)
	keys := make([]string, n)
	for i, rec := range ds.Records {
		keys[i] = key(rec)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return keys[order[x]] < keys[order[y]] })
	var out []dedup.Pair
	for x := range order {
		hi := x + window
		if hi > n {
			hi = n
		}
		for y := x + 1; y < hi; y++ {
			i, j := order[x], order[y]
			if i > j {
				i, j = j, i
			}
			out = append(out, dedup.Pair{I: i, J: j})
		}
	}
	return out
}

// sortOrderParallel returns the record indices sorted by (keys[i], i) —
// the order a stable sort on key yields, as a total order so sortChunks'
// result is independent of the chunking.
func sortOrderParallel(keys []string, workers int) []int {
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	sortChunks(order, workers, func(a, b int) bool {
		if keys[a] != keys[b] {
			return keys[a] < keys[b]
		}
		return a < b
	})
	return order
}
