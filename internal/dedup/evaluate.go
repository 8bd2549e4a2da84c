package dedup

import "sort"

// Pair is a candidate record pair with i < j — the unit of work the
// blocking stage (§6.5) hands to the similarity measures, and the unit the
// candidate-reduction numbers of the paper's evaluation count.
type Pair struct{ I, J int }

// Point is one threshold of an evaluation curve.
type Point struct {
	Threshold float64
	Precision float64
	Recall    float64
	F1        float64
}

// Curve is the F1-versus-threshold series of one measure on one dataset
// (one line of the paper's Figure 5).
type Curve struct {
	Dataset string
	Measure Measure
	Points  []Point
}

// BestF1 returns the curve's maximum F1 score and the threshold achieving
// it.
func (c Curve) BestF1() (f1, threshold float64) {
	for _, p := range c.Points {
		if p.F1 > f1 {
			f1, threshold = p.F1, p.Threshold
		}
	}
	return f1, threshold
}

// EvaluateCandidates scores the given candidate pairs with the plain
// per-pair matcher and sweeps the decision threshold by sorting. It is the
// sequential reference the tests compare the engine against — independent
// code, kept for that. Production callers use EvaluateCandidatesParallel
// (pairs in a slice) or EvaluateCandidatesStream (pairs from the blocking
// layer), which produce the same Curve, bit for bit, several times faster.
func EvaluateCandidates(ds *Dataset, m Measure, candidates []Pair, steps int) Curve {
	mt := newMatcher(ds, m)
	sims := make([]float64, len(candidates))
	for k, p := range candidates {
		sims[k] = mt.recordSim(p.I, p.J)
	}
	return sweepCurve(ds, m, candidates, sims, steps)
}

// sliceBatch is how many pairs EvaluateCandidatesParallel hands a worker
// at a time: small enough to balance skewed pair costs across workers on a
// few thousand candidates, large enough that the channel stays cold.
const sliceBatch = 256

// EvaluateCandidatesParallel is EvaluateCandidatesStream over a candidate
// slice: the slice is cut into sub-slices (no copy) that are queued on a
// pre-filled, closed channel. The returned Curve is identical to
// EvaluateCandidates' for any opts.Workers.
func EvaluateCandidatesParallel(ds *Dataset, m Measure, candidates []Pair, steps int, opts ScoreOpts) Curve {
	batches := make(chan []Pair, (len(candidates)+sliceBatch-1)/sliceBatch)
	for lo := 0; lo < len(candidates); lo += sliceBatch {
		batches <- candidates[lo:min(lo+sliceBatch, len(candidates))]
	}
	close(batches)
	opts.Recycle = nil
	return EvaluateCandidatesStream(ds, m, batches, steps, opts)
}

// sweepCurve turns per-candidate similarities into the threshold-sweep
// curve by sorting them — the reference the engine's bucket counts
// (curveFromCounts) are checked against; both end in point().
func sweepCurve(ds *Dataset, m Measure, candidates []Pair, sims []float64, steps int) Curve {
	type scored struct {
		sim float64
		dup bool
	}
	scoredPairs := make([]scored, len(candidates))
	for k, p := range candidates {
		scoredPairs[k] = scored{sims[k], ds.IsDuplicate(p.I, p.J)}
	}
	sort.Slice(scoredPairs, func(a, b int) bool { return scoredPairs[a].sim > scoredPairs[b].sim })

	totalTrue := ds.NumTruePairs()
	curve := Curve{Dataset: ds.Name, Measure: m}
	// Prefix true-positive counts over the descending score order: at
	// threshold t the classified-duplicate set is the prefix with sim >= t.
	tpPrefix := make([]int, len(scoredPairs)+1)
	for i, sp := range scoredPairs {
		tpPrefix[i+1] = tpPrefix[i]
		if sp.dup {
			tpPrefix[i+1]++
		}
	}
	for s := 0; s <= steps; s++ {
		t := float64(s) / float64(steps)
		n := sort.Search(len(scoredPairs), func(i int) bool { return scoredPairs[i].sim < t })
		curve.Points = append(curve.Points, point(t, tpPrefix[n], n, totalTrue))
	}
	// Ascending threshold order for presentation.
	sort.Slice(curve.Points, func(a, b int) bool { return curve.Points[a].Threshold < curve.Points[b].Threshold })
	return curve
}

// point computes precision/recall/F1 for tp true positives among n
// classified duplicates and totalTrue gold pairs.
func point(t float64, tp, n, totalTrue int) Point {
	p := Point{Threshold: t}
	if n > 0 {
		p.Precision = float64(tp) / float64(n)
	} else {
		p.Precision = 1 // empty classification is vacuously precise
	}
	if totalTrue > 0 {
		p.Recall = float64(tp) / float64(totalTrue)
	} else {
		p.Recall = 1
	}
	if p.Precision+p.Recall > 0 {
		p.F1 = 2 * p.Precision * p.Recall / (p.Precision + p.Recall)
	}
	return p
}
