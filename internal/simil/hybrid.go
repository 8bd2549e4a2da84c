package simil

import "sort"

// GeneralizedJaccard returns the Generalized Jaccard Coefficient of the two
// token sequences under the internal token measure tok: tokens are matched
// greedily 1:1 in descending similarity order, matches below threshold are
// discarded, and the score is sum(matched sims) / (|A| + |B| - |M|). It is
// the hybrid measure used for the plausibility name similarity (§6.2).
//
// Two empty sequences score 1; one empty sequence scores 0 (the paper's
// missing-value forgiveness is handled one level up, in the token measure or
// the caller).
func GeneralizedJaccard(a, b []string, tok TokenMeasure, threshold float64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	type cand struct {
		i, j int
		sim  float64
	}
	cands := make([]cand, 0, len(a)*len(b))
	for i, ta := range a {
		for j, tb := range b {
			if s := tok(ta, tb); s >= threshold {
				cands = append(cands, cand{i, j, s})
			}
		}
	}
	sort.Slice(cands, func(x, y int) bool {
		if cands[x].sim != cands[y].sim {
			return cands[x].sim > cands[y].sim
		}
		if cands[x].i != cands[y].i {
			return cands[x].i < cands[y].i
		}
		return cands[x].j < cands[y].j
	})
	usedA := make([]bool, len(a))
	usedB := make([]bool, len(b))
	sum := 0.0
	matched := 0
	for _, c := range cands {
		if usedA[c.i] || usedB[c.j] {
			continue
		}
		usedA[c.i] = true
		usedB[c.j] = true
		sum += c.sim
		matched++
	}
	return sum / float64(len(a)+len(b)-matched)
}

// gjCand is one token-pair candidate of the Generalized Jaccard matching.
type gjCand struct {
	i, j int
	sim  float64
}

// GeneralizedJaccardInto is GeneralizedJaccard with the candidate list and
// used-token marks held in caller-owned scratch. The greedy matching order
// is the strict total order (sim desc, i asc, j asc) — candidate keys are
// unique, so the insertion sort here yields the exact permutation of the
// allocating variant's sort.Slice and results match bit for bit. tok may
// itself use sc (the *Into token measures do); it runs before the matching
// buffers are touched.
func GeneralizedJaccardInto(a, b []string, tok TokenMeasure, threshold float64, sc *Scratch) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sc.gj = sc.gj[:0]
	for i, ta := range a {
		for j, tb := range b {
			if s := tok(ta, tb); s >= threshold {
				sc.gj = append(sc.gj, gjCand{i, j, s})
			}
		}
	}
	cands := sc.gj
	for x := 1; x < len(cands); x++ {
		c := cands[x]
		y := x
		for y > 0 && gjLess(c, cands[y-1]) {
			cands[y] = cands[y-1]
			y--
		}
		cands[y] = c
	}
	usedA := boolRow(&sc.ma, len(a))
	usedB := boolRow(&sc.mb, len(b))
	sum := 0.0
	matched := 0
	for _, c := range cands {
		if usedA[c.i] || usedB[c.j] {
			continue
		}
		usedA[c.i] = true
		usedB[c.j] = true
		sum += c.sim
		matched++
	}
	return sum / float64(len(a)+len(b)-matched)
}

// gjLess orders candidates by similarity descending, then (i, j) ascending.
func gjLess(x, y gjCand) bool {
	if x.sim != y.sim {
		return x.sim > y.sim
	}
	if x.i != y.i {
		return x.i < y.i
	}
	return x.j < y.j
}

// mongeElkanDirected returns the directed Monge-Elkan similarity of token
// sequence a against b: the mean over a's tokens of each token's best match
// in b under the internal measure tok. One empty sequence scores 0; two
// empty sequences score 1.
func mongeElkanDirected(a, b []string, tok TokenMeasure) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sum := 0.0
	for _, ta := range a {
		best := 0.0
		for _, tb := range b {
			if s := tok(ta, tb); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(a))
}

// MongeElkan returns the symmetrized Monge-Elkan similarity: the mean of the
// two directed scores. The paper symmetrizes exactly this way because the
// directed measure is asymmetric (§6.3, footnote 13).
func MongeElkan(a, b []string, tok TokenMeasure) float64 {
	return (mongeElkanDirected(a, b, tok) + mongeElkanDirected(b, a, tok)) / 2
}

// MongeElkanDL is MongeElkan over letter/digit tokens with the
// Damerau-Levenshtein similarity as the internal measure — the hybrid
// configuration of the heterogeneity scoring and the ME/Lev matcher.
func MongeElkanDL(a, b string) float64 {
	return MongeElkan(Tokenize(a), Tokenize(b), DamerauLevenshteinSimilarity)
}
