package simil

import "slices"

// Interned-set kernels. The scoring engine (§6.5 hot loop) preprocesses
// every distinct column value once — lowercasing, q-gram extraction, gram
// interning — and stores each value's trigram set as a sorted slice of
// unique integer gram IDs. Trigram Jaccard then reduces to a linear merge
// over two sorted slices: no maps, no hashing, no allocation per
// comparison. The merge counts exactly what the map-based Jaccard counts,
// so the derived similarity is bit-identical.

// InternGrams interns the grams through the given ID map (extending it for
// unseen grams, in first-seen order) and returns their IDs sorted
// ascending and unique.
func InternGrams(grams []string, intern map[string]uint32) []uint32 {
	if len(grams) == 0 {
		return nil
	}
	ids := make([]uint32, len(grams))
	for i, g := range grams {
		id, ok := intern[g]
		if !ok {
			id = uint32(len(intern))
			intern[g] = id
		}
		ids[i] = id
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// SortedIntersectCount returns |A ∩ B| of two sorted unique ID slices.
func SortedIntersectCount(a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}
