package simil

import (
	"math"
	"sort"
)

// Entropy returns the Shannon entropy (in bits) of the value distribution of
// the given column. An empty or single-valued column has entropy 0. The paper
// weights attributes by their entropy as a context-free uniqueness proxy
// (§6.3, §6.5).
//
// The per-value terms are accumulated in sorted value order, not map
// iteration order: float addition is not associative, and summing in the
// map's (run-varying) order made two processes disagree in the last ulp of
// every entropy-weighted score downstream. With a fixed order the result is
// a pure function of the column.
func Entropy(column []string) float64 {
	if len(column) == 0 {
		return 0
	}
	counts := make(map[string]int, len(column))
	for _, v := range column {
		counts[v]++
	}
	values := make([]string, 0, len(counts))
	for v := range counts {
		values = append(values, v)
	}
	sort.Strings(values)
	n := float64(len(column))
	h := 0.0
	for _, v := range values {
		p := float64(counts[v]) / n
		h -= float64(p * math.Log2(p))
	}
	if h < 0 {
		h = 0 // guard against -0 from rounding
	}
	return h
}

// EntropyWeights returns one weight per column, each column's entropy divided
// by the sum of all entropies, so the weights sum to 1. If every column has
// zero entropy the weights are uniform.
func EntropyWeights(columns [][]string) []float64 {
	weights := make([]float64, len(columns))
	for i, col := range columns {
		weights[i] = Entropy(col)
	}
	return NormalizeWeights(weights)
}

// NormalizeWeights divides the weights in place by their sum, accumulated in
// slice order, and returns them; an all-zero vector becomes uniform.
func NormalizeWeights(weights []float64) []float64 {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total == 0 {
		for i := range weights {
			weights[i] = 1 / float64(len(weights))
		}
		return weights
	}
	for i := range weights {
		weights[i] /= total
	}
	return weights
}

// WeightedAverage returns the weighted mean of scores under weights. The two
// slices must have equal length. If the weights sum to zero the plain mean is
// returned; for empty input the result is 0.
func WeightedAverage(scores, weights []float64) float64 {
	if len(scores) != len(weights) {
		panic("simil: WeightedAverage length mismatch")
	}
	if len(scores) == 0 {
		return 0
	}
	sum, wsum := 0.0, 0.0
	for i, s := range scores {
		sum += float64(s * weights[i])
		wsum += weights[i]
	}
	if wsum == 0 {
		plain := 0.0
		for _, s := range scores {
			plain += s
		}
		return plain / float64(len(scores))
	}
	return sum / wsum
}
