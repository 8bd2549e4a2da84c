package dedup

import "sort"

// Clustering support: classified duplicate pairs rarely form consistent
// clusters on their own; the standard post-processing is the transitive
// closure (connected components). The paper evaluates pair-based F1 only;
// the closure step and the cluster-level metrics here extend the substrate
// to full end-to-end deduplication.

// ConnectedComponents returns a component id per record (0-based, dense)
// for n records connected by the given pairs — the transitive closure of
// the classified-duplicate relation. Unconnected records form singleton
// components.
func ConnectedComponents(n int, pairs []Pair) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for _, p := range pairs {
		union(p.I, p.J)
	}
	// Densify component ids in first-appearance order.
	dense := map[int]int{}
	out := make([]int, n)
	for i := range out {
		root := find(i)
		id, ok := dense[root]
		if !ok {
			id = len(dense)
			dense[root] = id
		}
		out[i] = id
	}
	return out
}

// ClusterResult evaluates a predicted clustering against the gold standard.
type ClusterResult struct {
	PredictedClusters int
	GoldClusters      int
	// Pairwise metrics after transitive closure.
	PairPrecision float64
	PairRecall    float64
	PairF1        float64
	// ExactClusters counts predicted clusters identical to a gold cluster.
	ExactClusters int
}

// EvaluateClustering compares the predicted component ids against the
// dataset's gold standard.
func EvaluateClustering(ds *Dataset, predicted []int) ClusterResult {
	if len(predicted) != len(ds.Records) {
		panic("dedup: EvaluateClustering length mismatch")
	}
	res := ClusterResult{GoldClusters: ds.NumClusters()}

	predClusters := map[int][]int{}
	for i, c := range predicted {
		predClusters[c] = append(predClusters[c], i)
	}
	res.PredictedClusters = len(predClusters)

	// Pairwise counts via cluster-size arithmetic: TP = pairs sharing both
	// labels; predicted pairs = sum over predicted clusters; gold pairs =
	// ds.NumTruePairs().
	type key struct{ pred, gold int }
	joint := map[key]int{}
	for i := range predicted {
		joint[key{predicted[i], ds.ClusterOf[i]}]++
	}
	tp := 0
	for _, n := range joint {
		tp += n * (n - 1) / 2
	}
	predPairs := 0
	for _, idx := range predClusters {
		predPairs += len(idx) * (len(idx) - 1) / 2
	}
	goldPairs := ds.NumTruePairs()
	if predPairs > 0 {
		res.PairPrecision = float64(tp) / float64(predPairs)
	} else {
		res.PairPrecision = 1
	}
	if goldPairs > 0 {
		res.PairRecall = float64(tp) / float64(goldPairs)
	} else {
		res.PairRecall = 1
	}
	if res.PairPrecision+res.PairRecall > 0 {
		res.PairF1 = 2 * res.PairPrecision * res.PairRecall / (res.PairPrecision + res.PairRecall)
	}

	// Exact cluster matches: identical member sets.
	goldClusters := ds.Clusters()
	goldSig := map[string]bool{}
	for _, idx := range goldClusters {
		goldSig[signature(idx)] = true
	}
	for _, idx := range predClusters {
		if goldSig[signature(idx)] {
			res.ExactClusters++
		}
	}
	return res
}

// signature renders a sorted member list as a map key.
func signature(idx []int) string {
	s := append([]int(nil), idx...)
	sort.Ints(s)
	out := make([]byte, 0, len(s)*4)
	for _, v := range s {
		for v >= 128 {
			out = append(out, byte(v)|0x80)
			v >>= 7
		}
		out = append(out, byte(v))
		out = append(out, 0xff)
	}
	return string(out)
}
