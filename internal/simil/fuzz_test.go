package simil

import (
	"math"
	"strings"
	"testing"
)

// Native fuzz targets for the similarity kernels — the hot loop of the
// scoring engine. The fuzzed invariants are the metric contracts every
// caller relies on: results stay in [0, 1] (never NaN or Inf), symmetric
// measures are symmetric, self-similarity of a non-empty value is 1, and
// every allocation-free *Into kernel is bit-identical to its public
// allocating wrapper (the engine mixes both paths and the conformance
// oracles assert byte-identical curves, so a single bit of drift here
// breaks the sequential-vs-parallel guarantee downstream).

// stringKernels are the string measures under fuzz, paired with their
// scratch variants and contract flags.
var stringKernels = []struct {
	name      string
	plain     func(a, b string) float64
	into      func(a, b string, sc *Scratch) float64
	symmetric bool
	identity  bool // f(a, a) == 1 for non-empty a
}{
	{"JaroWinkler", JaroWinkler, JaroWinklerInto, true, true},
	{"DamerauLevenshteinSimilarity", DamerauLevenshteinSimilarity, DamerauLevenshteinSimilarityInto, true, true},
	// (d(a,b) + d(b,a)) / 2: IEEE addition commutes, so bit-symmetric.
	{"MongeElkanDL", MongeElkanDL, MongeElkanDLInto, true, true},
	// ExtendedDamerauLevenshtein treats empty/prefix as 1 by design; the
	// identity contract still holds (a == a is a prefix of itself).
	{"ExtendedDamerauLevenshtein", ExtendedDamerauLevenshtein, ExtendedDamerauLevenshteinInto, true, true},
}

func FuzzStringKernels(f *testing.F) {
	f.Add("MCDOWELL", "MCDOWALL")
	f.Add("ANN-MARIE", "ANNMARIE")
	f.Add("", "SMITH")
	f.Add("J.", "JOHN")
	f.Add("ßstraße", "STRASSE")
	f.Add("日本語テスト", "日本语テスト")
	f.Add("a\x80b", "a\xffb") // invalid UTF-8
	f.Add("  padded  ", "padded")
	f.Fuzz(func(t *testing.T, a, b string) {
		sc := &Scratch{}
		for _, k := range stringKernels {
			got := k.plain(a, b)
			if math.IsNaN(got) || got < 0 || got > 1 {
				t.Fatalf("%s(%q, %q) = %v, outside [0,1]", k.name, a, b, got)
			}
			if k.symmetric {
				if rev := k.plain(b, a); math.Float64bits(rev) != math.Float64bits(got) {
					t.Fatalf("%s not symmetric: (%q,%q)=%v (%q,%q)=%v", k.name, a, b, got, b, a, rev)
				}
			}
			if k.identity && a != "" {
				if self := k.plain(a, a); self != 1 {
					t.Fatalf("%s(%q, %q) = %v, want 1", k.name, a, a, self)
				}
			}
			// The scratch kernel must agree bit for bit, including after the
			// scratch has been dirtied by every other measure.
			if into := k.into(a, b, sc); math.Float64bits(into) != math.Float64bits(got) {
				t.Fatalf("%s: Into variant diverges: %v vs %v", k.name, into, got)
			}
		}
	})
}

// FuzzTokenKernels covers the token/q-gram measures: TrigramJaccard over
// raw strings and against its interned-set merge, plus the
// GeneralizedJaccard and Monge-Elkan token paths against their Into
// variants.
func FuzzTokenKernels(f *testing.F) {
	f.Add("CHAPEL HILL", "CHAPELL HILL")
	f.Add("", "")
	f.Add("A B C", "C B A")
	f.Add("ONE", "ONE TWO THREE")
	f.Fuzz(func(t *testing.T, a, b string) {
		sc := &Scratch{}
		jac := TrigramJaccard(a, b)
		if math.IsNaN(jac) || jac < 0 || jac > 1 {
			t.Fatalf("TrigramJaccard(%q, %q) = %v, outside [0,1]", a, b, jac)
		}
		if rev := TrigramJaccard(b, a); math.Float64bits(rev) != math.Float64bits(jac) {
			t.Fatalf("TrigramJaccard not symmetric: %v vs %v", jac, rev)
		}
		intern := map[string]uint32{}
		ia, ib := InternGrams(QGrams(a, 3), intern), InternGrams(QGrams(b, 3), intern)
		if merged := internedJaccard(ia, ib); math.Float64bits(merged) != math.Float64bits(jac) {
			t.Fatalf("interned Jaccard(%q, %q) = %v, want %v", a, b, merged, jac)
		}

		ta, tb := Tokenize(a), Tokenize(b)
		want := GeneralizedJaccard(ta, tb, DamerauLevenshteinSimilarity, 0.7)
		got := GeneralizedJaccardInto(ta, tb, DamerauLevenshteinSimilarity, 0.7, sc)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("GeneralizedJaccardInto diverges: %v vs %v", got, want)
		}
		if math.IsNaN(want) || want < 0 || want > 1 {
			t.Fatalf("GeneralizedJaccard(%q, %q) = %v, outside [0,1]", a, b, want)
		}
		if tok := MongeElkanTokensInto(ta, tb, sc); math.Float64bits(tok) != math.Float64bits(MongeElkan(ta, tb, DamerauLevenshteinSimilarity)) {
			// MongeElkanTokensInto is pinned to the DL token measure.
			t.Fatalf("MongeElkanTokensInto diverges: %v", tok)
		}
	})
}

// dpDistance is the edit distance by the dynamic program alone: the
// reference the bit-parallel kernel is held to.
func dpDistance(ra, rb []rune, transpose bool) int {
	if len(ra) == 0 || len(rb) == 0 {
		return len(ra) + len(rb)
	}
	return editDistanceDP(ra, rb, transpose, &Scratch{})
}

// checkEditDistance fails unless the bit-parallel kernel, where it takes the
// pair, and editDistance in both argument orders equal the dynamic program,
// for OSA and for plain Levenshtein, and the pattern masks are left clear.
func checkEditDistance(t *testing.T, a, b string, sc *Scratch) {
	t.Helper()
	ra, rb := []rune(a), []rune(b)
	p, txt := ra, rb
	if len(p) > len(txt) {
		p, txt = txt, p
	}
	for _, transpose := range []bool{true, false} {
		want := dpDistance(ra, rb, transpose)
		if len(p) > 0 { // editDistance answers an empty pattern itself
			if d, ok := editDistanceBits(p, txt, transpose, sc); ok && d != want {
				t.Fatalf("editDistanceBits(%q, %q, transpose=%v) = %d, DP %d", a, b, transpose, d, want)
			}
		}
		if d := editDistance(ra, rb, transpose, sc); d != want {
			t.Fatalf("editDistance(%q, %q, transpose=%v) = %d, DP %d", a, b, transpose, d, want)
		}
		if d := editDistance(rb, ra, transpose, sc); d != want {
			t.Fatalf("editDistance(%q, %q, transpose=%v) = %d, DP %d", b, a, transpose, d, want)
		}
	}
	if sc.peq != [128]uint64{} {
		t.Fatalf("pattern masks left set after (%q, %q)", a, b)
	}
}

// FuzzEditDistanceBits holds the bit-parallel edit distance equal to the
// dynamic program it replaced, for OSA Damerau-Levenshtein and for plain
// Levenshtein, on arbitrary strings. The other kernel fuzzers cannot: the
// allocating wrappers and the dedup matcher reach the same kernel.
func FuzzEditDistanceBits(f *testing.F) {
	long := strings.Repeat("ABCDEFGHIJ", 7) // 70 runes
	f.Add(long[:63], long[1:66])            // patterns of 63, 64 and 65 runes
	f.Add(long[:64], "X"+long[:64]+"Y")
	f.Add(long[:65], long[2:69])
	f.Add("M\u00dcLLER", "MUELLER")                     // non-ASCII rune in the pattern
	f.Add("MULLER", "M\u00dcLLERS")                     // non-ASCII rune only in the text
	f.Add("A\xffB\xfe", "AB\xff")                       // invalid UTF-8
	f.Add(long[:64], long[:62]+long[63:64]+long[62:63]) // transposition across bit 63
	f.Add(long[:64], long[:63]+"ZA"+long[63:64])
	f.Add("", "")
	f.Add("", "SMITH")
	f.Add("CA", "ABC")
	var sc Scratch
	f.Fuzz(func(t *testing.T, a, b string) {
		checkEditDistance(t, a, b, &sc)
	})
}
