package simil

import (
	"testing"
	"testing/quick"
)

func TestNeedlemanWunschKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"", "abc", 0},
		{"abc", "abc", 1},
		{"abc", "abd", 2.0 / 3},
		{"GATTACA", "GATTACA", 1},
	}
	for _, c := range cases {
		if got := NeedlemanWunsch(c.a, c.b); !almost(got, c.want) {
			t.Errorf("NeedlemanWunsch(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSmithWatermanLocalEmbedding(t *testing.T) {
	// A value fully embedded in the other scores 1 locally.
	if got := SmithWaterman("RIDGE", "JRS RIDGE ROAD"); got != 1 {
		t.Errorf("embedded value = %v, want 1", got)
	}
	if got := SmithWaterman("", ""); got != 1 {
		t.Errorf("both empty = %v", got)
	}
	if got := SmithWaterman("A", ""); got != 0 {
		t.Errorf("one empty = %v", got)
	}
	if got := SmithWaterman("ABC", "ABC"); got != 1 {
		t.Errorf("identical = %v", got)
	}
	low := SmithWaterman("XYZ", "ABCDEF")
	if low > 0.4 {
		t.Errorf("unrelated = %v, want low", low)
	}
}

func TestCosineQGramKnown(t *testing.T) {
	if got := CosineQGram("", "", 3); got != 1 {
		t.Errorf("both empty = %v", got)
	}
	if got := CosineQGram("abc", "", 3); got != 0 {
		t.Errorf("one empty = %v", got)
	}
	if got := CosineQGram("NIGHT", "NIGHT", 3); !almost(got, 1) {
		t.Errorf("identical = %v", got)
	}
	// Three distinct trigrams: sqrt(3)·sqrt(3) rounds below 3, and the
	// quotient must still not exceed 1.
	if got := CosineQGram("SMITH", "SMITH", 3); got != 1 {
		t.Errorf("identical, three trigrams = %v, want exactly 1", got)
	}
	mid := CosineQGram("NIGHT", "NIGTH", 3) // shares only the NIG trigram
	if mid <= 0 || mid >= 1 {
		t.Errorf("related = %v, want in (0, 1)", mid)
	}
}

func TestOverlapQGram(t *testing.T) {
	// Overlap forgives one value being a sub-sequence of q-grams.
	if got := OverlapQGram("RIDGE", "RIDGEWAY", 3); got != 1 {
		t.Errorf("prefix overlap = %v, want 1", got)
	}
	if got := OverlapQGram("", "", 2); got != 1 {
		t.Errorf("both empty = %v", got)
	}
	if got := OverlapQGram("AB", "", 2); got != 0 {
		t.Errorf("one empty = %v", got)
	}
}

func TestAlignmentBoundsAndSymmetry(t *testing.T) {
	measures := map[string]StringMeasure{
		"NeedlemanWunsch": NeedlemanWunsch,
		"SmithWaterman":   SmithWaterman,
		"CosineTrigram":   func(a, b string) float64 { return CosineQGram(a, b, 3) },
		"OverlapTrigram":  func(a, b string) float64 { return OverlapQGram(a, b, 3) },
	}
	for name, m := range measures {
		m := m
		f := func(a, b string) bool {
			x := m(a, b)
			return x >= 0 && x <= 1+1e-12 && almost(x, m(b, a))
		}
		if err := quick.Check(f, quickCfg()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestAlignmentIdentity(t *testing.T) {
	f := func(a string) bool {
		return almost(NeedlemanWunsch(a, a), 1) &&
			almost(CosineQGram(a, a, 3), 1) &&
			almost(OverlapQGram(a, a, 3), 1) &&
			almost(SmithWaterman(a, a), 1)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}
