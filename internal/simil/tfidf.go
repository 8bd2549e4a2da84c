package simil

import (
	"math"
	"sort"
)

// TFIDF holds corpus statistics for token-frequency-weighted comparison:
// rare tokens (high inverse document frequency) matter more than ubiquitous
// ones — "NGUYEN" agreeing means more than "INC" agreeing. This is the
// weighting behind the classic TF-IDF cosine and SoftTFIDF measures of the
// record-linkage literature, offered as a corpus-aware alternative to the
// paper's per-attribute entropy weighting.
type TFIDF struct {
	df   map[string]int // documents containing each token
	docs int
}

// NewTFIDF builds corpus statistics over the given documents (each a token
// slice; duplicate tokens within one document count once for df).
func NewTFIDF(docs [][]string) *TFIDF {
	t := &TFIDF{df: map[string]int{}, docs: len(docs)}
	for _, d := range docs {
		seen := map[string]bool{}
		for _, tok := range d {
			if !seen[tok] {
				seen[tok] = true
				t.df[tok]++
			}
		}
	}
	return t
}

// IDF returns the smoothed inverse document frequency of a token:
// log(1 + N/df). Unknown tokens get the maximal weight log(1 + N).
func (t *TFIDF) IDF(token string) float64 {
	if t.docs == 0 {
		return 0
	}
	df := t.df[token]
	if df == 0 {
		return math.Log(1 + float64(t.docs))
	}
	return math.Log(1 + float64(t.docs)/float64(df))
}

// weights renders a document as a normalized tf-idf vector: the distinct
// tokens in sorted order with one weight each. All accumulation (the norm
// here, the dot products below) runs in that sorted order so the measure is
// a pure function of its inputs — map-order summation made repeated calls
// disagree in the last ulp, which the parallel scoring engine's
// bit-identity contract cannot tolerate.
func (t *TFIDF) weights(doc []string) (order []string, w map[string]float64) {
	w = map[string]float64{}
	for _, tok := range doc {
		w[tok]++
	}
	order = make([]string, 0, len(w))
	for tok := range w {
		order = append(order, tok)
	}
	sort.Strings(order)
	norm := 0.0
	for _, tok := range order {
		x := w[tok] * t.IDF(tok)
		w[tok] = x
		norm += float64(x * x)
	}
	if norm == 0 {
		return order, w
	}
	norm = math.Sqrt(norm)
	for _, tok := range order {
		w[tok] /= norm
	}
	return order, w
}

// SoftCosine is the SoftTFIDF measure: tokens need not match exactly — a
// token of a matches the most similar token of b under tok if their
// similarity reaches threshold, and the match contributes the product of
// both tf-idf weights scaled by that similarity. It forgives typos inside
// rare, heavy tokens, which the strict cosine punishes hardest. Ties for
// the best match go to the lexicographically smallest token of b
// (iteration is sorted, see weights).
func (t *TFIDF) SoftCosine(a, b []string, tok TokenMeasure, threshold float64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	orderA, wa := t.weights(a)
	orderB, wb := t.weights(b)
	dot := 0.0
	for _, ta := range orderA {
		bestSim, bestTok := 0.0, ""
		for _, tb := range orderB {
			s := tok(ta, tb)
			if s >= threshold && s > bestSim {
				bestSim, bestTok = s, tb
			}
		}
		if bestTok != "" {
			dot += float64(wa[ta] * wb[bestTok] * bestSim)
		}
	}
	if dot > 1 {
		dot = 1
	}
	return dot
}
