// Package simil provides the string-similarity substrate that the paper's
// scoring and usability experiments build on (§6.2, §6.3, §6.5):
// edit-distance measures (Levenshtein, Damerau-Levenshtein and the paper's
// extended variant that forgives missing and abbreviated values), sequence
// measures (Jaro, Jaro-Winkler), token and q-gram set measures (Jaccard),
// hybrid measures (Generalized Jaccard, Monge-Elkan), the Soundex phonetic
// code, and column-entropy attribute weighting. Of these, the usability
// experiment's three record measures are Monge-Elkan over
// Damerau-Levenshtein, Jaro-Winkler and trigram Jaccard; the scoring engine
// runs them through the allocation-free Scratch kernels and the
// interned-set merge (setops.go).
//
// All similarity functions return values in [0, 1] where 1 means identical.
// All functions are pure and safe for concurrent use.
package simil

import "unicode"

// StringMeasure scores the similarity of two strings in [0, 1].
type StringMeasure func(a, b string) float64

// TokenMeasure scores the similarity of two tokens in [0, 1]. It is the
// internal measure of the hybrid (token-set) measures in this package.
type TokenMeasure func(a, b string) float64

// Tokenize splits s into maximal runs of letters and digits. Punctuation and
// whitespace separate tokens and are discarded. The zero-value result for an
// empty or all-punctuation string is an empty (non-nil) slice.
func Tokenize(s string) []string {
	return tokenizeInto(s, make([]string, 0, 4))
}

// OneToken reports whether Tokenize(s) is exactly [s]: s is not empty and
// every rune of it is a letter or a digit (an invalid UTF-8 byte is
// neither). Monge-Elkan between two such values is their
// Damerau-Levenshtein similarity s, bit for bit: each directed mean is s/1
// and (s + s) / 2 is exact.
func OneToken(s string) bool {
	for _, r := range s {
		if !isTokenRune(r) {
			return false
		}
	}
	return s != ""
}

// isTokenRune reports whether r belongs inside a token.
func isTokenRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// QGrams returns the q-gram multiset of s as a slice, padding-free. For
// strings shorter than q the whole string is the single gram; for an empty
// string the result is empty. q must be >= 1.
func QGrams(s string, q int) []string {
	if q < 1 {
		panic("simil: QGrams called with q < 1")
	}
	r := []rune(s)
	if len(r) == 0 {
		return nil
	}
	if len(r) <= q {
		return []string{string(r)}
	}
	grams := make([]string, 0, len(r)-q+1)
	for i := 0; i+q <= len(r); i++ {
		grams = append(grams, string(r[i:i+q]))
	}
	return grams
}
