package dedup

import (
	"math"
	"sort"
)

// The Fellegi-Sunter model: the classic probabilistic record-linkage
// alternative to threshold-on-similarity matching. Per attribute it
// estimates m = P(values agree | duplicate) and u = P(values agree |
// non-duplicate); a pair's score is the sum of log likelihood ratios over
// its attribute agreements. Training uses a labeled cluster split (the
// gold standard the generated test data provides for free), which is
// exactly the evaluation loop the paper's dataset enables.

// FSModel holds the per-attribute match and unmatch probabilities.
type FSModel struct {
	Attrs []string
	M     []float64 // P(agree | duplicate)
	U     []float64 // P(agree | non-duplicate)
	// AgreeSim is the value-similarity floor counting as agreement.
	AgreeSim float64
	measure  func(a, b string) float64
}

// trainFellegiSunter estimates the model from the dataset's gold standard
// over the given candidate pairs. agreement = ME/Lev value similarity >=
// agreeSim. Probabilities are Laplace-smoothed so attributes never produce
// infinite weights.
func trainFellegiSunter(ds *Dataset, candidates []Pair, agreeSim float64) *FSModel {
	measure := valueMeasure(MeasureMELev)
	nAttrs := len(ds.Attrs)
	agreeDup := make([]float64, nAttrs)
	agreeNon := make([]float64, nAttrs)
	dups, nons := 0, 0
	for _, p := range candidates {
		a, b := ds.Records[p.I], ds.Records[p.J]
		isDup := ds.IsDuplicate(p.I, p.J)
		if isDup {
			dups++
		} else {
			nons++
		}
		for c := 0; c < nAttrs; c++ {
			if measure(a[c], b[c]) >= agreeSim {
				if isDup {
					agreeDup[c]++
				} else {
					agreeNon[c]++
				}
			}
		}
	}
	model := &FSModel{
		Attrs:    ds.Attrs,
		M:        make([]float64, nAttrs),
		U:        make([]float64, nAttrs),
		AgreeSim: agreeSim,
		measure:  measure,
	}
	for c := 0; c < nAttrs; c++ {
		model.M[c] = (agreeDup[c] + 1) / (float64(dups) + 2)
		model.U[c] = (agreeNon[c] + 1) / (float64(nons) + 2)
	}
	return model
}

// Score returns the pair's summed log2 likelihood ratio: positive evidence
// for a duplicate, negative against.
func (m *FSModel) Score(a, b []string) float64 {
	s := 0.0
	for c := range m.Attrs {
		if m.measure(a[c], b[c]) >= m.AgreeSim {
			s += math.Log2(m.M[c] / m.U[c])
		} else {
			s += math.Log2((1 - m.M[c]) / (1 - m.U[c]))
		}
	}
	return s
}

// Weight returns one attribute's agreement weight log2(m/u) — the
// diagnostic view of what the model learned (identifying attributes carry
// large weights).
func (m *FSModel) Weight(attr int) float64 {
	return math.Log2(m.M[attr] / m.U[attr])
}

// EvaluateFellegiSunter trains on a cluster split and sweeps the decision
// score on the held-out half, returning the best validation F1 and the
// score achieving it. trainFrac and seed control the split, candidates
// blocks each half (see SelectThreshold).
func EvaluateFellegiSunter(ds *Dataset, candidates func(*Dataset) []Pair, agreeSim, trainFrac float64, seed int64) (bestF1, bestScore float64) {
	train, validate := splitClusters(ds, trainFrac, seed)
	model := trainFellegiSunter(train, candidates(train), agreeSim)

	valCands := candidates(validate)
	type scored struct {
		s   float64
		dup bool
	}
	pairs := make([]scored, len(valCands))
	for i, p := range valCands {
		pairs[i] = scored{model.Score(validate.Records[p.I], validate.Records[p.J]), validate.IsDuplicate(p.I, p.J)}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].s > pairs[j].s })
	totalTrue := validate.NumTruePairs()
	tp := 0
	for i, p := range pairs {
		if p.dup {
			tp++
		}
		n := i + 1
		if totalTrue == 0 || n == 0 {
			continue
		}
		prec := float64(tp) / float64(n)
		rec := float64(tp) / float64(totalTrue)
		if prec+rec == 0 {
			continue
		}
		f1 := 2 * prec * rec / (prec + rec)
		if f1 > bestF1 {
			bestF1 = f1
			bestScore = p.s
		}
	}
	return bestF1, bestScore
}
