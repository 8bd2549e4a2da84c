package simil

// Levenshtein returns the classic edit distance between a and b: the minimal
// number of single-rune insertions, deletions and substitutions that turn a
// into b. It is a thin wrapper over levenshteinInto with a fresh Scratch;
// hot loops should hold a per-worker Scratch and call the Into variant.
func Levenshtein(a, b string) int {
	var sc Scratch
	return levenshteinInto(a, b, &sc)
}

// DamerauLevenshtein returns the optimal-string-alignment variant of the
// Damerau-Levenshtein distance: insertions, deletions, substitutions and
// transpositions of two adjacent runes each cost 1, and no substring is
// edited more than once. This is the distance the paper uses to flag typos
// (distance exactly 1, §6.4). Thin wrapper over damerauLevenshteinInto.
func DamerauLevenshtein(a, b string) int {
	var sc Scratch
	return damerauLevenshteinInto(a, b, &sc)
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
