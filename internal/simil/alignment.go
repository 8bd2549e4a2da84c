package simil

import "math"

// Alignment-based measures beyond the classic edit distances: global
// alignment (Needleman-Wunsch) and local alignment (Smith-Waterman). They
// extend the matcher's measure suite beyond the paper's three (an explicit
// extension point of the usability experiment).

// NeedlemanWunsch returns the global-alignment similarity of a and b in
// [0, 1]: match +1, mismatch 0, gap 0, normalized by the longer length.
// Identical strings score 1; two empty strings score 1. Thin wrapper over
// NeedlemanWunschInto with a fresh Scratch.
func NeedlemanWunsch(a, b string) float64 {
	var sc Scratch
	return NeedlemanWunschInto(a, b, &sc)
}

// SmithWaterman returns the local-alignment similarity of a and b in
// [0, 1]: the best local alignment with match +1, mismatch -1, gap -1,
// normalized by the shorter length — so a value fully embedded in the other
// scores 1. Two empty strings score 1; one empty string scores 0. Thin
// wrapper over SmithWatermanInto with a fresh Scratch.
func SmithWaterman(a, b string) float64 {
	var sc Scratch
	return SmithWatermanInto(a, b, &sc)
}

// CosineQGram returns the cosine similarity of the q-gram frequency vectors
// of a and b in [0, 1]. Two empty strings score 1.
func CosineQGram(a, b string, q int) float64 {
	ga, gb := QGrams(a, q), QGrams(b, q)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	fa := map[string]int{}
	for _, g := range ga {
		fa[g]++
	}
	fb := map[string]int{}
	for _, g := range gb {
		fb[g]++
	}
	dot, na, nb := 0, 0, 0
	for g, c := range fa {
		na += c * c
		dot += c * fb[g]
	}
	for _, c := range fb {
		nb += c * c
	}
	if na == 0 || nb == 0 {
		return 0
	}
	// sqrt(n)·sqrt(n) can round below n (sqrt(3)² = 2.9999999999999996), so
	// equal vectors would score a hair above 1 without the clamp.
	return math.Min(1, float64(dot)/(math.Sqrt(float64(na))*math.Sqrt(float64(nb))))
}

// OverlapQGram returns the overlap coefficient of the q-gram sets:
// |A ∩ B| / min(|A|, |B|). Two empty strings score 1.
func OverlapQGram(a, b string, q int) float64 {
	ga, gb := QGrams(a, q), QGrams(b, q)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	if len(ga) == 0 || len(gb) == 0 {
		return 0
	}
	sa := map[string]struct{}{}
	for _, g := range ga {
		sa[g] = struct{}{}
	}
	sb := map[string]struct{}{}
	for _, g := range gb {
		sb[g] = struct{}{}
	}
	inter := 0
	for g := range sa {
		if _, ok := sb[g]; ok {
			inter++
		}
	}
	return float64(inter) / float64(minInt(len(sa), len(sb)))
}
