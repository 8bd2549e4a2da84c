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

// Measures lists the paper's three in paper order.
var Measures = []Measure{MeasureMELev, MeasureJaroWinkler, MeasureTrigramJaccard}

// valueMeasure resolves a measure name to its value-similarity function.
func valueMeasure(m Measure) simil.StringMeasure {
	switch m {
	case MeasureMELev:
		return hetero.ValueSim
	case MeasureJaroWinkler:
		return jwCaseInsensitive
	case MeasureTrigramJaccard:
		return jaccardCaseInsensitive
	}
	panic("dedup: unknown measure " + string(m))
}

func jwCaseInsensitive(a, b string) float64 {
	return simil.JaroWinkler(strings.ToLower(a), strings.ToLower(b))
}

func jaccardCaseInsensitive(a, b string) float64 {
	return simil.TrigramJaccard(strings.ToLower(a), strings.ToLower(b))
}

// matcher scores record pairs of one dataset under one measure, with
// entropy-derived attribute weights and best 1:1 name matching. Weights are
// computed over all records — the user cannot know the duplicates in
// advance (§6.5) — which is exactly what distinguishes them from the
// heterogeneity weights. It is the plain reference the scoring engine's
// id-row path (engine.go) is checked against.
type matcher struct {
	ds      *Dataset
	measure simil.StringMeasure
	weights []float64
	names   []int
	nameSet map[int]bool
}

// newMatcher builds a matcher for the dataset under the given measure.
func newMatcher(ds *Dataset, m Measure) *matcher {
	weights := simil.EntropyWeights(ds.columns())
	nameSet := map[int]bool{}
	for _, n := range ds.NameAttrs {
		nameSet[n] = true
	}
	return &matcher{
		ds:      ds,
		measure: valueMeasure(m),
		weights: weights,
		names:   append([]int(nil), ds.NameAttrs...),
		nameSet: nameSet,
	}
}

// recordSim scores records i and j: the weighted average of their value
// similarities, with the name attributes aggregated through the best 1:1
// assignment.
func (m *matcher) recordSim(i, j int) float64 {
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
		sum += float64(w * m.measure(a[c], b[c]))
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
func (m *matcher) bestNameAssignment(a, b []string) float64 {
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
				score += float64(w * m.measure(a[vaIdx[i]], b[vaIdx[p]]))
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
