package simil

// Jaccard returns the Jaccard coefficient of the two string sets:
// |A ∩ B| / |A ∪ B|. Duplicate elements within one slice count once. Two
// empty sets score 1.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	setA := make(map[string]struct{}, len(a))
	for _, s := range a {
		setA[s] = struct{}{}
	}
	setB := make(map[string]struct{}, len(b))
	for _, s := range b {
		setB[s] = struct{}{}
	}
	inter := 0
	for s := range setA {
		if _, ok := setB[s]; ok {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// TrigramJaccard returns the Jaccard coefficient over the trigram sets of a
// and b. It is one of the three record-similarity measures of the usability
// experiment (§6.5).
func TrigramJaccard(a, b string) float64 {
	return Jaccard(QGrams(a, 3), QGrams(b, 3))
}
