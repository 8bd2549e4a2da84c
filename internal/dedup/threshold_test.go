package dedup

import "testing"

func TestSplitClusters(t *testing.T) {
	ds := toyDataset(t, 40, []int{2, 3}, 0.2)
	train, validate := splitClusters(ds, 0.5, 1)
	if train.NumClusters()+validate.NumClusters() != ds.NumClusters() {
		t.Errorf("cluster split lost clusters: %d + %d != %d",
			train.NumClusters(), validate.NumClusters(), ds.NumClusters())
	}
	if train.NumRecords()+validate.NumRecords() != ds.NumRecords() {
		t.Errorf("record split lost records")
	}
	if train.NumTruePairs()+validate.NumTruePairs() != ds.NumTruePairs() {
		t.Errorf("pairs straddle the split: %d + %d != %d",
			train.NumTruePairs(), validate.NumTruePairs(), ds.NumTruePairs())
	}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := validate.Validate(); err != nil {
		t.Fatal(err)
	}
	// Deterministic.
	t2, _ := splitClusters(ds, 0.5, 1)
	if t2.NumRecords() != train.NumRecords() {
		t.Error("split not deterministic")
	}
	t3, _ := splitClusters(ds, 0.5, 2)
	if t3.NumRecords() == train.NumRecords() && t3.NumTruePairs() == train.NumTruePairs() &&
		len(t3.Records) > 0 && len(train.Records) > 0 && t3.Records[0][0] == train.Records[0][0] {
		t.Log("different seeds produced a similar split (possible but unlikely)")
	}
}
