package simil

import (
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"   ", nil},
		{"JOHN", []string{"JOHN"}},
		{"MARY-ANN SMITH", []string{"MARY", "ANN", "SMITH"}},
		{"1ST CONGRESSIONAL", []string{"1ST", "CONGRESSIONAL"}},
		{"J. R. EWING", []string{"J", "R", "EWING"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Tokenize(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestQGrams(t *testing.T) {
	got := QGrams("abcd", 3)
	want := []string{"abc", "bcd"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("QGrams(abcd, 3) = %v, want %v", got, want)
	}
	if g := QGrams("ab", 3); len(g) != 1 || g[0] != "ab" {
		t.Errorf("QGrams(ab, 3) = %v, want [ab]", g)
	}
	if g := QGrams("", 3); len(g) != 0 {
		t.Errorf("QGrams(empty, 3) = %v, want empty", g)
	}
}

func TestGeneralizedJaccardNameConfusion(t *testing.T) {
	// Token order must not matter: confused first/last names score 1 under
	// exact token matching.
	a := []string{"DEBRA", "OEHRIE", "WILLIAMS"}
	b := []string{"WILLIAMS", "DEBRA", "OEHRIE"}
	if got := GeneralizedJaccard(a, b, DamerauLevenshteinSimilarity, 0.5); got != 1 {
		t.Errorf("GeneralizedJaccard(confused order) = %v, want 1", got)
	}
}

func TestGeneralizedJaccardPartial(t *testing.T) {
	a := []string{"DEBRA", "WILLIAMS"}
	b := []string{"MARY", "FIELDS"}
	got := GeneralizedJaccard(a, b, DamerauLevenshteinSimilarity, 0.5)
	if got > 0.3 {
		t.Errorf("GeneralizedJaccard(different persons) = %v, want <= 0.3", got)
	}
}

func TestGeneralizedJaccardBoundsAndSymmetry(t *testing.T) {
	f := func(a, b []string) bool {
		x := GeneralizedJaccard(a, b, DamerauLevenshteinSimilarity, 0.5)
		y := GeneralizedJaccard(b, a, DamerauLevenshteinSimilarity, 0.5)
		return x >= 0 && x <= 1 && almost(x, y)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestMongeElkanDirectedVsSymmetric(t *testing.T) {
	a := Tokenize("JRS RIDGE")
	b := Tokenize("JRS")
	d1 := mongeElkanDirected(b, a, DamerauLevenshteinSimilarity)
	if d1 != 1 {
		t.Errorf("directed ME of subset tokens = %v, want 1", d1)
	}
	sym := MongeElkan(a, b, DamerauLevenshteinSimilarity)
	if sym >= 1 || sym <= 0 {
		t.Errorf("symmetric ME = %v, want in (0, 1)", sym)
	}
}

func TestMongeElkanSymmetry(t *testing.T) {
	f := func(a, b string) bool {
		return almost(MongeElkanDL(a, b), MongeElkanDL(b, a))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestMongeElkanIdenticalTokens(t *testing.T) {
	if got := MongeElkanDL("MARY ANN", "ANN MARY"); got != 1 {
		t.Errorf("MongeElkanDL(token transposition) = %v, want 1", got)
	}
}
