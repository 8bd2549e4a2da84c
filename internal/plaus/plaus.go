// Package plaus implements the paper's plausibility check (§6.2): a
// similarity score per duplicate pair reflecting how strongly the pair
// contradicts the assumption that both records describe the same voter.
// Simple errors and representation differences are compensated — word
// confusions between the name attributes, missing values and abbreviations
// do not reduce the score at all — and only stable, identifying attributes
// participate: the three names, the sex code, the derived year of birth and
// the place of birth.
package plaus

import (
	"strings"

	"repro/internal/core"
	"repro/internal/simil"
	"repro/internal/voter"
)

// Weights of the component scores: the combined name similarity is
// considered more important (0.5) than sex, year of birth and birth place
// (0.15 each). simil.WeightedAverage normalizes over the weight sum.
var componentWeights = []float64{0.5, 0.15, 0.15, 0.15}

// genJaccThreshold is the minimum internal token similarity for a token
// match inside the Generalized Jaccard Coefficient.
const genJaccThreshold = 0.5

// nameSimilarity scores the (first, middle, last) name tuples with the
// Generalized Jaccard Coefficient over the Extended Damerau-Levenshtein
// token measure, so confusions between the name attributes, typos within a
// name, missing names and abbreviations are all forgiven.
func nameSimilarity(a, b voter.Record) float64 {
	na := nameTuple(a)
	nb := nameTuple(b)
	return simil.GeneralizedJaccard(na, nb, simil.ExtendedDamerauLevenshtein, genJaccThreshold)
}

// nameTuple extracts the three name values (including empties: the extended
// token measure treats them as non-contradicting). Conventional missing
// markers like "-" or "UNKNOWN" are normalized to the empty string first —
// they denote unknown values, not contradictions (§6.2).
func nameTuple(r voter.Record) []string {
	return []string{
		normalizeMissing(r.Values[voter.IdxFirstName]),
		normalizeMissing(r.Values[voter.IdxMiddleName]),
		normalizeMissing(r.Values[voter.IdxLastName]),
	}
}

// normalizeMissing trims the value and maps missing markers to "".
func normalizeMissing(v string) string {
	if voter.IsMissing(v) {
		return ""
	}
	return strings.TrimSpace(v)
}

// sexSimilarity compares the sex codes: agreement, an undesignated value
// ('U') or a missing value score 1; a real disagreement scores 0.
func sexSimilarity(a, b voter.Record) float64 {
	sa := strings.ToUpper(strings.TrimSpace(a.Values[voter.IdxSexCode]))
	sb := strings.ToUpper(strings.TrimSpace(b.Values[voter.IdxSexCode]))
	if sa == "" || sb == "" || sa == "U" || sb == "U" || sa == sb {
		return 1
	}
	return 0
}

// yearOfBirthSimilarity compares the derived years of birth (snapshot date
// minus age) with the paper's tolerance formula:
//
//	sim = 1 - min(1, max(0, |Δ| - 1) / 10)
//
// A missing year on either side does not contradict and scores 1.
func yearOfBirthSimilarity(a, b voter.Record) float64 {
	ya, yb := a.YearOfBirth(), b.YearOfBirth()
	if ya == 0 || yb == 0 {
		return 1
	}
	diff := ya - yb
	if diff < 0 {
		diff = -diff
	}
	over := float64(diff - 1)
	if over < 0 {
		over = 0
	}
	penalty := over / 10
	if penalty > 1 {
		penalty = 1
	}
	return 1 - penalty
}

// birthPlaceSimilarity compares the birth places with the Extended
// Damerau-Levenshtein similarity (missing values and prefixes forgiven).
func birthPlaceSimilarity(a, b voter.Record) float64 {
	return simil.ExtendedDamerauLevenshtein(
		normalizeMissing(a.Values[voter.IdxBirthPlace]),
		normalizeMissing(b.Values[voter.IdxBirthPlace]))
}

// PairScore is the plausibility of a duplicate pair: the weighted average of
// the four component similarities.
func PairScore(a, b voter.Record) float64 {
	scores := []float64{
		nameSimilarity(a, b),
		sexSimilarity(a, b),
		yearOfBirthSimilarity(a, b),
		birthPlaceSimilarity(a, b),
	}
	return simil.WeightedAverage(scores, componentWeights)
}

// pairScratch is the per-worker mutable state of the allocation-free
// plausibility scorer: kernel scratch plus fixed-size name-tuple and
// component-score buffers.
type pairScratch struct {
	sc     simil.Scratch
	na, nb [3]string
	scores [4]float64
}

// NewScorer returns one worker's plausibility scorer for core.UpdateScores
// (pass the function itself as the factory). It owns private scratch buffers
// (not goroutine-safe) and computes the same four components in the same
// order as PairScore, so scores are bit-identical.
func NewScorer() core.ClusterScorer {
	return core.Pairwise(core.KindPlausibility, newPairScorer())
}

// newPairScorer returns PairScore through private, allocation-free scratch.
func newPairScorer() core.PairScorer {
	ps := &pairScratch{}
	tok := func(x, y string) float64 { return simil.ExtendedDamerauLevenshteinInto(x, y, &ps.sc) }
	return func(a, b voter.Record) float64 {
		ps.na[0] = normalizeMissing(a.Values[voter.IdxFirstName])
		ps.na[1] = normalizeMissing(a.Values[voter.IdxMiddleName])
		ps.na[2] = normalizeMissing(a.Values[voter.IdxLastName])
		ps.nb[0] = normalizeMissing(b.Values[voter.IdxFirstName])
		ps.nb[1] = normalizeMissing(b.Values[voter.IdxMiddleName])
		ps.nb[2] = normalizeMissing(b.Values[voter.IdxLastName])
		ps.scores[0] = simil.GeneralizedJaccardInto(ps.na[:], ps.nb[:], tok, genJaccThreshold, &ps.sc)
		ps.scores[1] = sexSimilarity(a, b)
		ps.scores[2] = yearOfBirthSimilarity(a, b)
		ps.scores[3] = simil.ExtendedDamerauLevenshteinInto(
			normalizeMissing(a.Values[voter.IdxBirthPlace]),
			normalizeMissing(b.Values[voter.IdxBirthPlace]), &ps.sc)
		return simil.WeightedAverage(ps.scores[:], componentWeights)
	}
}

// Update computes (incrementally) the plausibility version-similarity map of
// the dataset.
func Update(d *core.Dataset) { UpdateParallel(d, 1) }

// UpdateParallel is Update over a worker pool (workers <= 0 selects
// GOMAXPROCS); the result is identical. Each worker gets its own
// allocation-free scorer with private scratch buffers.
func UpdateParallel(d *core.Dataset, workers int) { d.UpdateScores(NewScorer, workers, nil) }

// UpdateDelta scores only the clusters a delta apply marked dirty
// (dl.Dirty()). Because pair scores are computed once and never revisited,
// scoring the dirty subset after each delta yields maps bit-identical to a
// full UpdateParallel over the grown dataset — provided scores were current
// before the delta was applied.
func UpdateDelta(d *core.Dataset, dl *core.Delta, workers int) {
	d.UpdateScores(NewScorer, workers, dl.Dirty())
}

// ClusterPlausibility returns the dataset's per-cluster plausibility: the
// minimum pair score, because a cluster is already unsound if a single
// record refers to another voter.
func ClusterPlausibility(d *core.Dataset) []float64 {
	return d.ClusterScores(core.KindPlausibility, core.AggMin)
}
