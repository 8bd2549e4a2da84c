package dedup

import (
	"math"
	"testing"
)

func TestFellegiSunterWeightsLearnIdentifyingAttrs(t *testing.T) {
	ds := toyDataset(t, 60, []int{2, 3}, 0.3)
	cands := allPairs(len(ds.Records))
	model := trainFellegiSunter(ds, cands, 0.9)
	if len(model.M) != len(ds.Attrs) {
		t.Fatalf("model width = %d", len(model.M))
	}
	for c := range model.Attrs {
		if model.M[c] <= 0 || model.M[c] >= 1 || model.U[c] <= 0 || model.U[c] >= 1 {
			t.Fatalf("probabilities out of range at %s: m=%v u=%v", model.Attrs[c], model.M[c], model.U[c])
		}
	}
	// The zip attribute (index 4) is highly identifying: agreement among
	// duplicates is near-certain and rare among non-duplicates, so its
	// weight must be clearly positive.
	if w := model.Weight(4); w <= 1 {
		t.Errorf("zip agreement weight = %v, want > 1", w)
	}
}

func TestFellegiSunterScoresSeparate(t *testing.T) {
	ds := toyDataset(t, 60, []int{2}, 0.3)
	cands := allPairs(len(ds.Records))
	model := trainFellegiSunter(ds, cands, 0.9)
	// Mean score of duplicates must exceed mean score of non-duplicates.
	var dupSum, nonSum float64
	var dupN, nonN int
	for _, p := range cands {
		s := model.Score(ds.Records[p.I], ds.Records[p.J])
		if math.IsInf(s, 0) || math.IsNaN(s) {
			t.Fatalf("non-finite score %v", s)
		}
		if ds.IsDuplicate(p.I, p.J) {
			dupSum += s
			dupN++
		} else {
			nonSum += s
			nonN++
		}
	}
	if dupN == 0 || nonN == 0 {
		t.Fatal("degenerate candidate mix")
	}
	if dupSum/float64(dupN) <= nonSum/float64(nonN) {
		t.Errorf("duplicate mean score %v <= non-duplicate %v",
			dupSum/float64(dupN), nonSum/float64(nonN))
	}
}
