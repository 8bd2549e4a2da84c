package dedup

import "testing"

func TestConnectedComponents(t *testing.T) {
	// 0-1-2 connected, 3 alone, 4-5 connected.
	comp := ConnectedComponents(6, []Pair{{0, 1}, {1, 2}, {4, 5}})
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Errorf("chain not merged: %v", comp)
	}
	if comp[3] == comp[0] || comp[3] == comp[4] {
		t.Errorf("singleton merged: %v", comp)
	}
	if comp[4] != comp[5] {
		t.Errorf("pair not merged: %v", comp)
	}
	distinct := map[int]bool{}
	for _, c := range comp {
		distinct[c] = true
	}
	if len(distinct) != 3 {
		t.Errorf("components = %d, want 3", len(distinct))
	}
}

func TestConnectedComponentsEmpty(t *testing.T) {
	comp := ConnectedComponents(3, nil)
	if comp[0] == comp[1] || comp[1] == comp[2] {
		t.Errorf("no pairs should give singletons: %v", comp)
	}
}

func TestEvaluateClusteringPerfect(t *testing.T) {
	ds := &Dataset{
		Name:      "t",
		Attrs:     []string{"a"},
		Records:   [][]string{{"x"}, {"x"}, {"y"}, {"z"}},
		ClusterOf: []int{0, 0, 1, 2},
	}
	res := EvaluateClustering(ds, []int{5, 5, 7, 9})
	if res.PairF1 != 1 || res.PairPrecision != 1 || res.PairRecall != 1 {
		t.Errorf("perfect clustering scored %+v", res)
	}
	if res.ExactClusters != 3 {
		t.Errorf("exact clusters = %d, want 3", res.ExactClusters)
	}
}

func TestEvaluateClusteringOverMerge(t *testing.T) {
	ds := &Dataset{
		Name:      "t",
		Attrs:     []string{"a"},
		Records:   [][]string{{"x"}, {"x"}, {"y"}, {"y"}},
		ClusterOf: []int{0, 0, 1, 1},
	}
	// Everything merged into one blob: recall 1, precision 2/6.
	res := EvaluateClustering(ds, []int{0, 0, 0, 0})
	if res.PairRecall != 1 {
		t.Errorf("recall = %v", res.PairRecall)
	}
	if res.PairPrecision < 0.33 || res.PairPrecision > 0.34 {
		t.Errorf("precision = %v, want 1/3", res.PairPrecision)
	}
	if res.ExactClusters != 0 {
		t.Errorf("exact clusters = %d", res.ExactClusters)
	}
}

func TestEvaluateClusteringUnderMerge(t *testing.T) {
	ds := &Dataset{
		Name:      "t",
		Attrs:     []string{"a"},
		Records:   [][]string{{"x"}, {"x"}, {"x"}},
		ClusterOf: []int{0, 0, 0},
	}
	// All singletons: precision vacuously 1, recall 0.
	res := EvaluateClustering(ds, []int{0, 1, 2})
	if res.PairPrecision != 1 || res.PairRecall != 0 || res.PairF1 != 0 {
		t.Errorf("under-merge scored %+v", res)
	}
}
