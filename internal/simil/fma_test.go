package simil

import (
	"math"
	"sort"
	"testing"
)

// Every kernel in this package rounds a product before it adds it —
// `float64(x*y)` — because the Go spec lets arm64, riscv64, ppc64le, s390x
// and loong64 fuse x*y + z into one instruction with a single rounding,
// while amd64 never fuses. A fused kernel moves stored scores by an ulp, and
// with them every byte of a store and its corpus root. Each test below pins
// one kernel's result on inputs where the fused form, emulated with
// math.FMA, rounds differently. On amd64 the pin holds either way and
// documents why the conversions exist; on a fusing CPU it fails as soon as
// one is dropped. `make fma-check` scans the assembly on every host.

// pinUnfused checks one kernel result against its pinned unfused value and
// that the inputs are ones where fusing would have moved it.
func pinUnfused(t *testing.T, kernel string, got, fused, want float64) {
	t.Helper()
	if fused == want {
		t.Fatalf("%s: the fused form also gives %v, so these inputs pin nothing", kernel, want)
	}
	if got != want {
		t.Errorf("%s = %v, want %v (a fused multiply-add gives %v)", kernel, got, want, fused)
	}
}

func TestEntropyRoundsEachTerm(t *testing.T) {
	col := []string{"C", "B", "E"}
	pinUnfused(t, "Entropy", Entropy(col), fusedEntropy(col), 1.584962500721156)
}

func TestWeightedAverageRoundsEachProduct(t *testing.T) {
	scores, weights := []float64{0.5, 0.1, 0.1}, []float64{0.2, 0.2, 0.6}
	pinUnfused(t, "WeightedAverage", WeightedAverage(scores, weights), fusedWeightedAverage(scores, weights), 0.18)
}

// TestJaroWinklerRoundsPrefixBoost pins the Winkler boost. Jaro's own
// rounded product, transpositions/2, is exact, so fusing it cannot move a
// result; it is rounded only so the assembly scan has no exception.
func TestJaroWinklerRoundsPrefixBoost(t *testing.T) {
	pinUnfused(t, "JaroWinkler", JaroWinkler("DWAYNE", "DICKSONX"), fusedJaroWinkler("DWAYNE", "DICKSONX"), 0.575)
}

// fusedEntropy is Entropy as a fusing CPU computes it without the rounding.
func fusedEntropy(column []string) float64 {
	counts := map[string]int{}
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
		h = math.FMA(-p, math.Log2(p), h)
	}
	return h
}

// fusedWeightedAverage is WeightedAverage fused (weights summing non-zero).
func fusedWeightedAverage(scores, weights []float64) float64 {
	sum, wsum := 0.0, 0.0
	for i, s := range scores {
		sum = math.FMA(s, weights[i], sum)
		wsum += weights[i]
	}
	return sum / wsum
}

// fusedJaroWinkler is JaroWinkler with its prefix boost fused.
func fusedJaroWinkler(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	j := Jaro(a, b)
	prefix := 0
	for prefix < winklerMaxPrefix && prefix < len(ra) && prefix < len(rb) && ra[prefix] == rb[prefix] {
		prefix++
	}
	return math.FMA(float64(prefix)*winklerPrefixScale, 1-j, j)
}
