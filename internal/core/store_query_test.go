package core

import (
	"testing"

	"repro/internal/docstore"
	"repro/internal/simil"
	"repro/internal/voter"
)

// buildScoredStore builds a dataset with three clusters of distinct
// plausibility/heterogeneity levels and materializes it.
func buildScoredStore(t *testing.T) *docstore.DB {
	t.Helper()
	mk := func(ncid, first, last string) voter.Record {
		r := voter.NewRecord()
		r.SetName("ncid", ncid)
		r.SetName("first_name", first)
		r.SetName("last_name", last)
		r.SetName("sex_code", "F")
		return r
	}
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(voter.Snapshot{Date: "2008-01-01", Records: []voter.Record{
		// CLEAN: the two rows differ only in a trailing period (a
		// formatting difference that survives trimming-mode hashing but is
		// forgiven by the scorers).
		mk("CLEAN", "ANNA", "SMITH"), mk("CLEAN", "ANNA", "SMITH."),
		mk("TYPO", "BELLA", "JONES"), mk("TYPO", "BELLAX", "JONES"),
		mk("BAD", "CARLA", "WILSON"), mk("BAD", "ZOE", "NGUYEN"),
	}})
	// Plausibility via the name scorer; heterogeneity via a first-name
	// similarity stand-in (cheap and monotone for this test).
	d.UpdateScores(pairwise(KindPlausibility, func(a, b voter.Record) float64 {
		return simil.GeneralizedJaccard(
			[]string{a.GetName("first_name"), a.GetName("last_name")},
			[]string{b.GetName("first_name"), b.GetName("last_name")},
			simil.ExtendedDamerauLevenshtein, 0.5)
	}), 1, nil)
	d.UpdateScores(pairwise(KindHeteroPerson, func(a, b voter.Record) float64 {
		return simil.DamerauLevenshteinSimilarity(a.GetName("first_name"), b.GetName("first_name"))
	}), 1, nil)
	d.Publish()
	return d.ToDocDB()
}

func TestClusterDocsCarryScoreSummaries(t *testing.T) {
	db := buildScoredStore(t)
	col := db.Collection(ClustersCollection)

	clean := col.Get("CLEAN")
	if v, ok := clean["plausibility"]; !ok || v.(float64) < 0.99 {
		t.Errorf("clean plausibility = %v, %v", v, ok)
	}
	bad := col.Get("BAD")
	if v, ok := bad["plausibility"]; !ok || v.(float64) > 0.6 {
		t.Errorf("bad plausibility = %v, %v", v, ok)
	}
	if v, ok := clean["heterogeneity"]; !ok || v.(float64) > 0.1 {
		t.Errorf("clean heterogeneity = %v, %v", v, ok)
	}
}

func TestScoreSummariesSurviveRoundTrip(t *testing.T) {
	db := buildScoredStore(t)
	ds, err := FromDocDBParallel(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Round trip again: summaries are recomputed from the restored maps.
	db2 := ds.ToDocDB()
	a := db.Collection(ClustersCollection).Get("TYPO")["plausibility"].(float64)
	b := db2.Collection(ClustersCollection).Get("TYPO")["plausibility"].(float64)
	if a != b {
		t.Errorf("plausibility drifted across round trip: %v vs %v", a, b)
	}
}
