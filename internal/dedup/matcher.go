package dedup

import (
	"strings"

	"repro/internal/hetero"
	"repro/internal/simil"
)

// Measure names the three record-similarity measures of the usability
// experiment.
type Measure string

const (
	// MeasureMELev is the Monge-Elkan/Damerau-Levenshtein combination also
	// used for the heterogeneity scores (four-way comparison).
	MeasureMELev Measure = "ME/Lev"
	// MeasureJaroWinkler is the sequential Jaro-Winkler similarity.
	MeasureJaroWinkler Measure = "JaroWinkler"
	// MeasureTrigramJaccard is the token-based Jaccard similarity over
	// trigrams.
	MeasureTrigramJaccard Measure = "Jaccard"
)

// Extended measures beyond the paper's three: global and local alignment
// and two further q-gram measures, covering the sequential / hybrid /
// token-based spectrum more densely.
const (
	MeasureNeedlemanWunsch Measure = "NeedlemanWunsch"
	MeasureSmithWaterman   Measure = "SmithWaterman"
	MeasureCosineTrigram   Measure = "CosineTrigram"
	MeasureOverlapTrigram  Measure = "OverlapTrigram"
	// MeasureSoftTFIDF is the corpus-aware SoftTFIDF measure: per-column
	// token idf statistics with typo-forgiving token matching. Unlike the
	// other measures it depends on the dataset it runs on.
	MeasureSoftTFIDF Measure = "SoftTFIDF"
)

// Measures lists the paper's three in paper order.
var Measures = []Measure{MeasureMELev, MeasureJaroWinkler, MeasureTrigramJaccard}

// AllMeasures lists every available measure, the paper's first.
var AllMeasures = []Measure{
	MeasureMELev, MeasureJaroWinkler, MeasureTrigramJaccard,
	MeasureNeedlemanWunsch, MeasureSmithWaterman,
	MeasureCosineTrigram, MeasureOverlapTrigram, MeasureSoftTFIDF,
}

// valueMeasure resolves a measure name to its value-similarity function.
func valueMeasure(m Measure) simil.StringMeasure {
	switch m {
	case MeasureMELev:
		return hetero.ValueSim
	case MeasureJaroWinkler:
		return jwCaseInsensitive
	case MeasureTrigramJaccard:
		return jaccardCaseInsensitive
	case MeasureNeedlemanWunsch:
		return lowered(simil.NeedlemanWunsch)
	case MeasureSmithWaterman:
		return lowered(simil.SmithWaterman)
	case MeasureCosineTrigram:
		return lowered(func(a, b string) float64 { return simil.CosineQGram(a, b, 3) })
	case MeasureOverlapTrigram:
		return lowered(func(a, b string) float64 { return simil.OverlapQGram(a, b, 3) })
	}
	panic("dedup: unknown measure " + string(m))
}

// lowered wraps a measure with case folding, matching the paper's
// case-insensitive record comparison.
func lowered(m simil.StringMeasure) simil.StringMeasure {
	return func(a, b string) float64 {
		return m(strings.ToLower(a), strings.ToLower(b))
	}
}

func jwCaseInsensitive(a, b string) float64 {
	return simil.JaroWinkler(strings.ToLower(a), strings.ToLower(b))
}

func jaccardCaseInsensitive(a, b string) float64 {
	return simil.TrigramJaccard(strings.ToLower(a), strings.ToLower(b))
}

// Matcher scores record pairs of one dataset under one measure, with
// entropy-derived attribute weights and best 1:1 name matching. Weights are
// computed over all records — the user cannot know the duplicates in
// advance (§6.5) — which is exactly what distinguishes them from the
// heterogeneity weights. Measures are held per column so corpus-aware
// measures (SoftTFIDF) can carry column statistics.
type Matcher struct {
	ds       *Dataset
	measures []simil.StringMeasure // one per column
	weights  []float64
	names    []int
	nameSet  map[int]bool
}

// NewMatcher builds a matcher for the dataset under the given measure.
func NewMatcher(ds *Dataset, m Measure) *Matcher {
	weights := simil.EntropyWeights(ds.Columns())
	nameSet := map[int]bool{}
	for _, n := range ds.NameAttrs {
		nameSet[n] = true
	}
	matcher := &Matcher{
		ds:      ds,
		weights: weights,
		names:   append([]int(nil), ds.NameAttrs...),
		nameSet: nameSet,
	}
	matcher.measures = make([]simil.StringMeasure, len(ds.Attrs))
	if m == MeasureSoftTFIDF {
		for c, col := range ds.Columns() {
			matcher.measures[c] = softTFIDFMeasure(col)
		}
		return matcher
	}
	vm := valueMeasure(m)
	for c := range matcher.measures {
		matcher.measures[c] = vm
	}
	return matcher
}

// softTFIDFThreshold is the internal token-match threshold of the
// SoftTFIDF measure.
const softTFIDFThreshold = 0.85

// softTFIDFMeasure builds the per-column SoftTFIDF value measure from the
// column's token corpus.
func softTFIDFMeasure(column []string) simil.StringMeasure {
	docs := make([][]string, len(column))
	for i, v := range column {
		docs[i] = simil.Tokenize(strings.ToLower(v))
	}
	tfidf := simil.NewTFIDF(docs)
	return func(a, b string) float64 {
		return tfidf.SoftCosine(
			simil.Tokenize(strings.ToLower(a)),
			simil.Tokenize(strings.ToLower(b)),
			simil.DamerauLevenshteinSimilarity, softTFIDFThreshold)
	}
}

// RecordSim scores records i and j: the weighted average of their value
// similarities, with the name attributes aggregated through the best 1:1
// assignment.
func (m *Matcher) RecordSim(i, j int) float64 {
	a, b := m.ds.Records[i], m.ds.Records[j]
	sum, wsum := 0.0, 0.0
	for c := range m.ds.Attrs {
		if m.nameSet[c] {
			continue // handled jointly below
		}
		w := m.weights[c]
		if w == 0 {
			continue
		}
		sum += float64(w * m.measures[c](a[c], b[c]))
		wsum += w
	}
	if len(m.names) > 0 {
		nameW := 0.0
		for _, c := range m.names {
			nameW += m.weights[c]
		}
		if nameW > 0 {
			sum += float64(nameW * m.bestNameAssignment(a, b))
			wsum += nameW
		}
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// bestNameAssignment scores the name attributes under the best 1:1 mapping
// between the two records' name values, weighting each matched slot by its
// attribute weight. With the register's three names this enumerates at most
// 3! = 6 permutations.
func (m *Matcher) bestNameAssignment(a, b []string) float64 {
	n := len(m.names)
	vaIdx := m.names
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := 0.0
	var walk func(k int)
	walk = func(k int) {
		if k == n {
			score, wsum := 0.0, 0.0
			for i, p := range perm {
				w := m.weights[vaIdx[i]]
				score += float64(w * m.measures[vaIdx[i]](a[vaIdx[i]], b[vaIdx[p]]))
				wsum += w
			}
			if wsum > 0 {
				score /= wsum
			}
			if score > best {
				best = score
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			walk(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	walk(0)
	return best
}
