package simil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// levenshtein is the classic edit distance, the reference the OSA distance
// is held to: no measure of the paper uses it.
func levenshtein(a, b string) int {
	return editDistance([]rune(a), []rune(b), false, &Scratch{})
}

func TestLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"abc", "abc", 0},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"ADELL", "ADELE", 1},
		{"gumbo", "gambol", 2},
		{"a", "b", 1},
		{"ab", "ba", 2}, // plain Levenshtein: transposition costs 2
	}
	for _, c := range cases {
		if got := levenshtein(c.a, c.b); got != c.want {
			t.Errorf("levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDamerauLevenshteinKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"ab", "ba", 1},  // adjacent transposition costs 1
		{"ca", "abc", 3}, // OSA variant cannot edit a substring twice
		{"OEHRIE", "OEHRLE", 1},
		{"BAILEY", "BALEY", 1},
		{"MARTHA", "MARHTA", 1},
		{"abcd", "acbd", 1},
	}
	for _, c := range cases {
		if got := DamerauLevenshtein(c.a, c.b); got != c.want {
			t.Errorf("DamerauLevenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDamerauNeverExceedsLevenshtein(t *testing.T) {
	f := func(a, b string) bool {
		return DamerauLevenshtein(a, b) <= levenshtein(a, b)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinSymmetry(t *testing.T) {
	f := func(a, b string) bool {
		return levenshtein(a, b) == levenshtein(b, a) &&
			DamerauLevenshtein(a, b) == DamerauLevenshtein(b, a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinIdentity(t *testing.T) {
	f := func(a string) bool {
		return levenshtein(a, a) == 0 && DamerauLevenshtein(a, a) == 0
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		return levenshtein(a, c) <= levenshtein(a, b)+levenshtein(b, c)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestSimilarityBounds(t *testing.T) {
	measures := map[string]StringMeasure{
		"DamerauLevenshteinSimilarity": DamerauLevenshteinSimilarity,
		"ExtendedDamerauLevenshtein":   ExtendedDamerauLevenshtein,
		"Jaro":                         Jaro,
		"JaroWinkler":                  JaroWinkler,
		"TrigramJaccard":               TrigramJaccard,
		"MongeElkanDL":                 MongeElkanDL,
	}
	for name, m := range measures {
		m := m
		f := func(a, b string) bool {
			s := m(a, b)
			return s >= 0 && s <= 1
		}
		if err := quick.Check(f, quickCfg()); err != nil {
			t.Errorf("%s out of [0,1]: %v", name, err)
		}
	}
}

func TestSimilarityIdentityIsOne(t *testing.T) {
	measures := map[string]StringMeasure{
		"DamerauLevenshteinSimilarity": DamerauLevenshteinSimilarity,
		"Jaro":                         Jaro,
		"JaroWinkler":                  JaroWinkler,
		"TrigramJaccard":               TrigramJaccard,
	}
	for name, m := range measures {
		m := m
		f := func(a string) bool {
			return m(a, a) == 1
		}
		if err := quick.Check(f, quickCfg()); err != nil {
			t.Errorf("%s(a, a) != 1: %v", name, err)
		}
	}
}

// TestEditDistanceBitsMatchesDP is the seeded differential run of the
// bit-parallel kernel against the dynamic program: lengths up to 70 runes
// around the 64-rune word, a four-letter alphabet so that transpositions
// and repeats are common, and a non-ASCII rune in one string of eight.
func TestEditDistanceBitsMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []rune("ABCD")
	gen := func() string {
		r := make([]rune, rng.Intn(71))
		for i := range r {
			r[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if len(r) > 0 && rng.Intn(8) == 0 {
			r[rng.Intn(len(r))] = '\u00c9'
		}
		return string(r)
	}
	var sc Scratch
	for i := 0; i < 20000; i++ {
		a := gen()
		b := a
		if r := []rune(b); rng.Intn(2) == 0 {
			b = gen()
		} else if len(r) > 1 {
			// A near miss: swap two adjacent runes, then perhaps edit one.
			k := rng.Intn(len(r) - 1)
			r[k], r[k+1] = r[k+1], r[k]
			if rng.Intn(2) == 0 {
				r[rng.Intn(len(r))] = alphabet[rng.Intn(len(alphabet))]
			}
			b = string(r)
		}
		checkEditDistance(t, a, b, &sc)
	}
}

// quickCfg returns a deterministic quick.Check configuration so the property
// tests never flake between runs.
func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(42)),
	}
}

func BenchmarkDamerauLevenshtein(b *testing.B) {
	for i := 0; i < b.N; i++ {
		DamerauLevenshtein("CHRISTOPHER", "KRISTOFFER")
	}
}
