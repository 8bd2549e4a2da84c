package simil

import "testing"

func corpusDocs() [][]string {
	return [][]string{
		{"JOHN", "SMITH"},
		{"MARY", "SMITH"},
		{"ROBERT", "SMITH"},
		{"LINDA", "NGUYEN"},
		{"JOHN", "MILLER"},
		{"MARY", "MILLER"},
	}
}

func TestIDFOrdering(t *testing.T) {
	tf := NewTFIDF(corpusDocs())
	common := tf.IDF("SMITH")
	rare := tf.IDF("NGUYEN")
	unknown := tf.IDF("ZAPHOD")
	if !(common < rare && rare <= unknown) {
		t.Errorf("IDF ordering broken: SMITH %v, NGUYEN %v, unknown %v", common, rare, unknown)
	}
}

// exactCosine is SoftCosine with token matches restricted to equal tokens:
// the plain TF-IDF cosine.
func exactCosine(tf *TFIDF, a, b []string) float64 {
	return tf.SoftCosine(a, b, DamerauLevenshteinSimilarity, 1)
}

func TestCosineIdentityAndBounds(t *testing.T) {
	tf := NewTFIDF(corpusDocs())
	if got := exactCosine(tf, []string{"JOHN", "SMITH"}, []string{"JOHN", "SMITH"}); got < 0.999 {
		t.Errorf("identical docs = %v", got)
	}
	if got := exactCosine(tf, nil, nil); got != 1 {
		t.Errorf("both empty = %v", got)
	}
	if got := exactCosine(tf, []string{"JOHN"}, nil); got != 0 {
		t.Errorf("one empty = %v", got)
	}
	if got := exactCosine(tf, []string{"JOHN"}, []string{"MARY"}); got != 0 {
		t.Errorf("disjoint = %v", got)
	}
}

func TestCosineWeighsRareTokensHigher(t *testing.T) {
	tf := NewTFIDF(corpusDocs())
	// Sharing the rare NGUYEN outweighs sharing the ubiquitous SMITH.
	rareShared := exactCosine(tf, []string{"JOHN", "NGUYEN"}, []string{"MARY", "NGUYEN"})
	commonShared := exactCosine(tf, []string{"JOHN", "SMITH"}, []string{"MARY", "SMITH"})
	if rareShared <= commonShared {
		t.Errorf("rare token share (%v) should beat common share (%v)", rareShared, commonShared)
	}
}

func TestSoftCosineForgivesTypos(t *testing.T) {
	tf := NewTFIDF(corpusDocs())
	hard := exactCosine(tf, []string{"JOHN", "NGUYEN"}, []string{"JOHN", "NGUYEM"})
	soft := tf.SoftCosine([]string{"JOHN", "NGUYEN"}, []string{"JOHN", "NGUYEM"},
		DamerauLevenshteinSimilarity, 0.8)
	if soft <= hard {
		t.Errorf("soft (%v) should forgive the typo the hard cosine (%v) punishes", soft, hard)
	}
	if soft < 0.8 {
		t.Errorf("soft cosine = %v, want close to 1", soft)
	}
	// Exact match still scores 1-ish.
	if got := tf.SoftCosine([]string{"JOHN"}, []string{"JOHN"}, DamerauLevenshteinSimilarity, 0.8); got < 0.999 {
		t.Errorf("identical soft = %v", got)
	}
}

func TestSoftCosineBounds(t *testing.T) {
	tf := NewTFIDF(corpusDocs())
	pairs := [][2][]string{
		{{"JOHN", "SMITH"}, {"MARY", "MILLER"}},
		{{"NGUYEN"}, {"NGUYEN"}},
		{{"A", "B", "C"}, {"C", "B", "A"}},
	}
	for _, p := range pairs {
		got := tf.SoftCosine(p[0], p[1], DamerauLevenshteinSimilarity, 0.8)
		if got < 0 || got > 1 {
			t.Errorf("SoftCosine(%v, %v) = %v out of range", p[0], p[1], got)
		}
	}
}

func TestEmptyCorpus(t *testing.T) {
	tf := NewTFIDF(nil)
	if got := tf.IDF("X"); got != 0 {
		t.Errorf("empty-corpus IDF = %v", got)
	}
	if got := exactCosine(tf, []string{"X"}, []string{"X"}); got != 0 {
		// All weights zero: no signal either way.
		t.Errorf("empty-corpus cosine = %v, want 0", got)
	}
}
