package simil

import (
	"math"
	"math/rand"
	"testing"
)

// randomValue draws a plausible register value: letters, digits, spaces,
// punctuation, mixed case, occasionally empty or unicode.
func randomValue(rng *rand.Rand) string {
	alphabet := []rune("ABCDEFGHIJKLMNOPQRSTUVWXYZ abcdefghijklmnop0123456789.-'Ü é")
	n := rng.Intn(14)
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(out)
}

// TestIntoVariantsMatchAllocatingKernels fuzzes every *Into kernel against
// its allocating counterpart on shared scratch state: the engine's
// bit-identity contract starts here.
func TestIntoVariantsMatchAllocatingKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc Scratch // shared and reused across all iterations on purpose
	for i := 0; i < 500; i++ {
		a, b := randomValue(rng), randomValue(rng)
		checkEditDistance(t, a, b, &sc)
		checks := []struct {
			name       string
			have, want float64
		}{
			{"DamerauLevenshteinSimilarity", DamerauLevenshteinSimilarityInto(a, b, &sc), DamerauLevenshteinSimilarity(a, b)},
			{"Jaro", jaroInto(a, b, &sc), Jaro(a, b)},
			{"JaroWinkler", JaroWinklerInto(a, b, &sc), JaroWinkler(a, b)},
			{"MongeElkanDL", MongeElkanDLInto(a, b, &sc), MongeElkanDL(a, b)},
		}
		for _, c := range checks {
			if math.Float64bits(c.have) != math.Float64bits(c.want) {
				t.Fatalf("%sInto(%q, %q) = %v, want bit-identical %v", c.name, a, b, c.have, c.want)
			}
		}
	}
}

func TestTokenizeIntoMatchesTokenize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var buf []string
	for i := 0; i < 200; i++ {
		s := randomValue(rng)
		want := Tokenize(s)
		buf = tokenizeInto(s, buf)
		if len(buf) != len(want) {
			t.Fatalf("tokenizeInto(%q) = %v, want %v", s, buf, want)
		}
		for j := range want {
			if buf[j] != want[j] {
				t.Fatalf("tokenizeInto(%q) = %v, want %v", s, buf, want)
			}
		}
	}
}

// TestOneToken holds OneToken to its definition, Tokenize(s) == [s].
func TestOneToken(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []string{"", "SMITH", "O'BRIEN", "M\u00dcLLER", "A\xff", "12", " A", "-"}
	for i := 0; i < 200; i++ {
		cases = append(cases, randomValue(rng))
	}
	for _, s := range cases {
		toks := Tokenize(s)
		if want := len(toks) == 1 && toks[0] == s; OneToken(s) != want {
			t.Errorf("OneToken(%q) = %v, Tokenize gives %q", s, !want, toks)
		}
	}
}

// TestGramProfileKernelsMatchMapMeasures checks that the merge over
// interned trigram IDs counts exactly what the map-based TrigramJaccard
// counts.
func TestGramProfileKernelsMatchMapMeasures(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	intern := map[string]uint32{}
	for i := 0; i < 300; i++ {
		a, b := randomValue(rng), randomValue(rng)
		jac := internedJaccard(InternGrams(QGrams(a, 3), intern), InternGrams(QGrams(b, 3), intern))
		if want := TrigramJaccard(a, b); math.Float64bits(jac) != math.Float64bits(want) {
			t.Fatalf("profile Jaccard(%q, %q) = %v, want %v", a, b, jac, want)
		}
	}
}

// internedJaccard is the scoring engine's trigram Jaccard over two sorted
// unique ID slices.
func internedJaccard(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := SortedIntersectCount(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// TestEntropyDeterministic recomputes the entropy weights of a
// many-distinct-value column from fresh maps and requires exact bit
// equality — the ROADMAP's cross-process last-ulp fix.
func TestEntropyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	column := make([]string, 500)
	for i := range column {
		column[i] = randomValue(rng)
	}
	columns := [][]string{column, column[:250], column[250:]}
	base := EntropyWeights(columns)
	for run := 0; run < 30; run++ {
		// Rebuild the inputs so every run constructs fresh maps internally.
		again := EntropyWeights([][]string{
			append([]string(nil), column...),
			append([]string(nil), column[:250]...),
			append([]string(nil), column[250:]...),
		})
		for i := range base {
			if math.Float64bits(base[i]) != math.Float64bits(again[i]) {
				t.Fatalf("run %d: weight %d = %x, want %x", run, i,
					math.Float64bits(again[i]), math.Float64bits(base[i]))
			}
		}
	}
}

// TestHybridIntoVariantsMatch fuzzes the extended-DL and Generalized
// Jaccard scratch variants against their allocating counterparts for exact
// bit equality.
func TestHybridIntoVariantsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc Scratch
	for iter := 0; iter < 500; iter++ {
		a, b := randomValue(rng), randomValue(rng)
		want := ExtendedDamerauLevenshtein(a, b)
		got := ExtendedDamerauLevenshteinInto(a, b, &sc)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("ExtendedDamerauLevenshteinInto(%q, %q) = %v, want %v", a, b, got, want)
		}

		ta := make([]string, rng.Intn(4))
		tb := make([]string, rng.Intn(4))
		for i := range ta {
			ta[i] = randomValue(rng)
		}
		for i := range tb {
			tb[i] = randomValue(rng)
		}
		wantGJ := GeneralizedJaccard(ta, tb, ExtendedDamerauLevenshtein, 0.5)
		gotGJ := GeneralizedJaccardInto(ta, tb, func(x, y string) float64 {
			return ExtendedDamerauLevenshteinInto(x, y, &sc)
		}, 0.5, &sc)
		if math.Float64bits(wantGJ) != math.Float64bits(gotGJ) {
			t.Fatalf("GeneralizedJaccardInto(%q, %q) = %v, want %v", ta, tb, gotGJ, wantGJ)
		}
	}
}

func BenchmarkDamerauLevenshteinInto(b *testing.B) {
	var sc Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DamerauLevenshteinSimilarityInto("CHRISTOPHER", "KRISTOFFER", &sc)
	}
}

func BenchmarkDamerauLevenshteinAlloc(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DamerauLevenshteinSimilarity("CHRISTOPHER", "KRISTOFFER")
	}
}
