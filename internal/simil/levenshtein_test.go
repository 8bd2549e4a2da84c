package simil

import (
	"math/rand"
	"testing"
	"testing/quick"
)

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
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
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
		return DamerauLevenshtein(a, b) <= Levenshtein(a, b)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinSymmetry(t *testing.T) {
	f := func(a, b string) bool {
		return Levenshtein(a, b) == Levenshtein(b, a) &&
			DamerauLevenshtein(a, b) == DamerauLevenshtein(b, a)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinIdentity(t *testing.T) {
	f := func(a string) bool {
		return Levenshtein(a, a) == 0 && DamerauLevenshtein(a, a) == 0
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestLevenshteinTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
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
