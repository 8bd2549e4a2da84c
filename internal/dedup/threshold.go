package dedup

import (
	"math/rand"
	"sort"
)

// Threshold selection: the paper observes that on dirtier data "the
// threshold had to be set much more carefully" (§6.5) — which in practice
// means choosing it on labeled data and hoping it transfers. SelectThreshold
// implements the standard protocol: split the gold clusters into a training
// and a validation half, pick the F1-maximal threshold on the training
// half, and report how it generalizes.

// ThresholdSelection reports one train/validate round.
type ThresholdSelection struct {
	Measure    Measure
	Threshold  float64 // chosen on the training half
	TrainF1    float64 // best F1 on the training half
	ValidateF1 float64 // F1 of that threshold on the validation half
}

// SelectThreshold runs the protocol. Clusters (not records) are split, so
// no duplicate pair straddles the halves and the validation score is
// honest. candidates blocks each half (internal/blocking's Generate, which
// this package cannot import); trainFrac is the fraction of clusters
// trained on; seed fixes the split.
func SelectThreshold(ds *Dataset, m Measure, candidates func(*Dataset) []Pair, steps int, trainFrac float64, seed int64) ThresholdSelection {
	train, validate := splitClusters(ds, trainFrac, seed)
	sel := ThresholdSelection{Measure: m}

	trainCurve := EvaluateCandidatesParallel(train, m, candidates(train), steps, ScoreOpts{})
	sel.TrainF1, sel.Threshold = trainCurve.BestF1()

	valCurve := EvaluateCandidatesParallel(validate, m, candidates(validate), steps, ScoreOpts{})
	best := 0.0
	bestDist := 2.0
	for _, p := range valCurve.Points {
		d := p.Threshold - sel.Threshold
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			bestDist = d
			best = p.F1
		}
	}
	sel.ValidateF1 = best
	return sel
}

// splitClusters partitions the dataset's clusters into two datasets: the
// first receives about trainFrac of the clusters. Records never straddle
// the split.
func splitClusters(ds *Dataset, trainFrac float64, seed int64) (train, validate *Dataset) {
	clusters := ds.Clusters()
	ids := make([]int, 0, len(clusters))
	for id := range clusters {
		ids = append(ids, id)
	}
	// Deterministic order before shuffling: map iteration is random.
	sort.Ints(ids)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	cut := int(float64(len(ids)) * trainFrac)

	build := func(keep []int) *Dataset {
		out := &Dataset{Name: ds.Name, Attrs: ds.Attrs, NameAttrs: ds.NameAttrs}
		newID := 0
		for _, cid := range keep {
			for _, ri := range clusters[cid] {
				out.Records = append(out.Records, ds.Records[ri])
				out.ClusterOf = append(out.ClusterOf, newID)
			}
			newID++
		}
		return out
	}
	return build(ids[:cut]), build(ids[cut:])
}
