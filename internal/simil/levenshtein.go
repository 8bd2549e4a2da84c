package simil

// DamerauLevenshtein returns the optimal-string-alignment variant of the
// Damerau-Levenshtein distance: insertions, deletions, substitutions and
// transpositions of two adjacent runes each cost 1, and no substring is
// edited more than once. This is the distance the paper uses to flag typos
// (distance exactly 1, §6.4).
func DamerauLevenshtein(a, b string) int {
	return editDistance([]rune(a), []rune(b), true, &Scratch{})
}

// DamerauLevenshteinSimilarity normalizes DamerauLevenshtein to [0, 1]:
// 1 - dist/max(len(a), len(b)). Two empty strings are identical (1). It is
// the internal token measure of the heterogeneity scoring (§6.3) and the
// ME/Lev matcher (§6.5); thin wrapper over
// DamerauLevenshteinSimilarityInto.
func DamerauLevenshteinSimilarity(a, b string) float64 {
	var sc Scratch
	return DamerauLevenshteinSimilarityInto(a, b, &sc)
}

// editDistance is the edit distance of two decoded rune strings: the OSA
// Damerau-Levenshtein distance when transpose is set, the classic
// Levenshtein distance (insertions, deletions and substitutions) otherwise.
// Both distances are symmetric, so the shorter string is the pattern of the
// bit-parallel kernel, which takes every pattern of at most 64 ASCII runes;
// anything else runs the dynamic program. ra and rb may alias sc.ra and
// sc.rb.
func editDistance(ra, rb []rune, transpose bool, sc *Scratch) int {
	if len(ra) > len(rb) {
		ra, rb = rb, ra
	}
	if len(ra) == 0 {
		return len(rb)
	}
	if d, ok := editDistanceBits(ra, rb, transpose, sc); ok {
		return d
	}
	return editDistanceDP(ra, rb, transpose, sc)
}

// editDistanceBits is Myers' bit-vector edit distance (1999) in Hyyrö's
// formulation, with Hyyrö's transposition term (2003) for the OSA distance
// when transpose is set. Bit i of each vector describes row i+1 of the DP
// matrix of pattern p against text t: vp/vn mark a vertical delta of +1/-1
// in the current column, d0 a diagonal delta of 0. One text rune costs a
// handful of word operations instead of len(p) DP cells. It reports false,
// having computed nothing, when p is longer than 64 runes or holds a rune of
// 128 or above; a non-ASCII rune of t simply matches no pattern position.
// Only the sc.peq entries of p's runes are set, and they are cleared again.
func editDistanceBits(p, t []rune, transpose bool, sc *Scratch) (int, bool) {
	if len(p) > 64 {
		return 0, false
	}
	for _, r := range p {
		if r >= 128 {
			return 0, false
		}
	}
	peq := &sc.peq
	for i, r := range p {
		peq[r] |= 1 << i
	}
	last := uint64(1) << (len(p) - 1)
	vp, vn, d0, prevEq := ^uint64(0), uint64(0), uint64(0), uint64(0)
	dist := len(p)
	for _, c := range t {
		var eq uint64
		if c < 128 {
			eq = peq[c]
		}
		x := eq | vn
		if transpose {
			// Row i+1 may transpose when p[i] = t[j-1] and p[i-1] = t[j];
			// that levels its diagonal where row i's diagonal rose by one
			// in the previous column.
			x |= (^d0 & eq) << 1 & prevEq
			prevEq = eq
		}
		d0 = ((eq & vp) + vp) ^ vp | x
		hp := vn | ^(d0 | vp)
		hn := vp & d0
		if hp&last != 0 {
			dist++
		} else if hn&last != 0 {
			dist--
		}
		hp = hp<<1 | 1 // row 0 grows by one per text rune
		hn <<= 1
		vp = hn | ^(d0 | hp)
		vn = hp & d0
	}
	for _, r := range p {
		peq[r] = 0
	}
	return dist, true
}

// editDistanceDP is the dynamic program editDistanceBits replaces: three
// rows of the OSA matrix, or the Levenshtein one when transpose is unset.
// It is the fallback for long or non-ASCII patterns and the reference the
// bit-parallel kernel is fuzzed against. Both strings are non-empty.
func editDistanceDP(ra, rb []rune, transpose bool, sc *Scratch) int {
	prev2 := intRow(&sc.r0, len(rb)+1)
	prev := intRow(&sc.r1, len(rb)+1)
	cur := intRow(&sc.r2, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d := min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
			if transpose && i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := prev2[j-2] + 1; t < d {
					d = t
				}
			}
			cur[j] = d
		}
		prev2, prev, cur = prev, cur, prev2
	}
	return prev[len(rb)]
}
