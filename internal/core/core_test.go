package core

import (
	"math"
	"testing"

	"repro/internal/docstore"
	"repro/internal/simil"
	"repro/internal/voter"
)

// rec builds a record with the given ncid, names and snapshot date.
func rec(ncid, first, last, date string) voter.Record {
	r := voter.NewRecord()
	r.SetName("ncid", ncid)
	r.SetName("first_name", first)
	r.SetName("last_name", last)
	r.SetName("snapshot_dt", date)
	r.SetName("age", "40")
	return r
}

func snap(date string, recs ...voter.Record) voter.Snapshot {
	for i := range recs {
		recs[i].SetName("snapshot_dt", date)
	}
	return voter.Snapshot{Date: date, Records: recs}
}

func TestImportBuildsClusters(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	st := d.ImportSnapshot(snap("2008-01-01",
		rec("A1", "JOHN", "SMITH", ""),
		rec("A1", "JON", "SMITH", ""),
		rec("B2", "MARY", "JONES", ""),
	))
	if st.Rows != 3 || st.NewRecords != 3 || st.NewObjects != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if d.NumClusters() != 2 || d.NumRecords() != 3 {
		t.Fatalf("clusters=%d records=%d", d.NumClusters(), d.NumRecords())
	}
	if d.NumPairs() != 1 {
		t.Errorf("pairs = %d, want 1", d.NumPairs())
	}
	c := d.Cluster("A1")
	if c == nil || len(c.Records) != 2 {
		t.Fatalf("cluster A1 = %+v", c)
	}
}

func TestExactDuplicateRemovalAcrossSnapshots(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01", rec("A1", "JOHN", "SMITH", "")))
	st := d.ImportSnapshot(snap("2009-01-01", rec("A1", "JOHN", "SMITH", "")))
	if st.NewRecords != 0 {
		t.Errorf("identical row counted as new: %+v", st)
	}
	if d.NumRecords() != 1 {
		t.Errorf("records = %d, want 1 (deduplicated)", d.NumRecords())
	}
	// The surviving record lists both snapshot dates.
	e := d.Cluster("A1").Records[0]
	if len(e.Snapshots) != 2 || e.Snapshots[0] != "2008-01-01" || e.Snapshots[1] != "2009-01-01" {
		t.Errorf("snapshot array = %v", e.Snapshots)
	}
}

func TestRemoveNoneKeepsEverything(t *testing.T) {
	d := NewDataset(RemoveNone)
	d.ImportSnapshot(snap("2008-01-01", rec("A1", "JOHN", "SMITH", "")))
	st := d.ImportSnapshot(snap("2009-01-01", rec("A1", "JOHN", "SMITH", "")))
	if d.NumRecords() != 2 {
		t.Errorf("RemoveNone records = %d, want 2", d.NumRecords())
	}
	if st.NewRecords != 0 {
		t.Errorf("duplicate row still counted as new record: %+v", st)
	}
}

func TestWhitespaceHandlingPerMode(t *testing.T) {
	padded := rec("A1", "JOHN", "SMITH  ", "")
	plain := rec("A1", "JOHN", "SMITH", "")

	exact := NewDataset(RemoveExact)
	exact.ImportSnapshot(snap("2008-01-01", plain))
	exact.ImportSnapshot(snap("2009-01-01", padded))
	if exact.NumRecords() != 2 {
		t.Errorf("exact mode should keep the whitespace variant: %d", exact.NumRecords())
	}

	trimmed := NewDataset(RemoveTrimmed)
	trimmed.ImportSnapshot(snap("2008-01-01", plain))
	trimmed.ImportSnapshot(snap("2009-01-01", padded))
	if trimmed.NumRecords() != 1 {
		t.Errorf("trimming mode should drop the whitespace variant: %d", trimmed.NumRecords())
	}
}

func TestPersonDataModeIgnoresDistricts(t *testing.T) {
	a := rec("A1", "JOHN", "SMITH", "")
	b := rec("A1", "JOHN", "SMITH", "")
	b.SetName("nc_house_desc", "NC HOUSE DISTRICT 64")

	trimmed := NewDataset(RemoveTrimmed)
	trimmed.ImportSnapshot(snap("2008-01-01", a))
	trimmed.ImportSnapshot(snap("2009-01-01", b))
	if trimmed.NumRecords() != 2 {
		t.Errorf("trimming keeps district variants: %d", trimmed.NumRecords())
	}

	person := NewDataset(RemovePersonData)
	person.ImportSnapshot(snap("2008-01-01", a.Clone()))
	person.ImportSnapshot(snap("2009-01-01", b.Clone()))
	if person.NumRecords() != 1 {
		t.Errorf("person mode should ignore district variants: %d", person.NumRecords())
	}
}

func TestAgeAndDateChangesNeverCreateNewRecords(t *testing.T) {
	a := rec("A1", "JOHN", "SMITH", "")
	b := rec("A1", "JOHN", "SMITH", "")
	b.SetName("age", "41")
	d := NewDataset(RemoveExact)
	d.ImportSnapshot(snap("2008-01-01", a))
	st := d.ImportSnapshot(snap("2009-01-01", b))
	if st.NewRecords != 0 || d.NumRecords() != 1 {
		t.Errorf("aging created a new record: %+v records=%d", st, d.NumRecords())
	}
}

func TestYearlyStats(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01", rec("A1", "J", "S", ""), rec("B2", "M", "K", "")))
	d.ImportSnapshot(snap("2008-11-03", rec("A1", "J", "S", ""), rec("C3", "P", "Q", "")))
	d.ImportSnapshot(snap("2009-01-01", rec("A1", "JX", "S", "")))
	ys := d.YearlyStats()
	if len(ys) != 2 {
		t.Fatalf("years = %d", len(ys))
	}
	y08 := ys[0]
	if y08.Year != 2008 || y08.Snapshots != 2 || y08.TotalRecords != 4 {
		t.Errorf("2008 = %+v", y08)
	}
	if y08.NewRecords != 3 || y08.NewObjects != 3 {
		t.Errorf("2008 new = %+v", y08)
	}
	y09 := ys[1]
	if y09.NewRecords != 1 || y09.NewObjects != 0 {
		t.Errorf("2009 = %+v", y09)
	}
	if math.Abs(y09.NewRecordRate-1.0) > 1e-9 {
		t.Errorf("2009 rate = %v", y09.NewRecordRate)
	}
}

func TestStatsTable2Row(t *testing.T) {
	none := NewDataset(RemoveNone)
	trim := NewDataset(RemoveTrimmed)
	snaps := []voter.Snapshot{
		snap("2008-01-01", rec("A1", "JOHN", "SMITH", ""), rec("B2", "M", "K", "")),
		snap("2009-01-01", rec("A1", "JOHN", "SMITH", ""), rec("B2", "M", "K", "")),
		snap("2010-01-01", rec("A1", "JOHNNY", "SMITH", ""), rec("B2", "M", "K", "")),
	}
	for _, s := range snaps {
		none.ImportSnapshot(s)
		trim.ImportSnapshot(s)
	}
	nonePairs := none.NumPairs()
	if nonePairs != 3+3 { // two clusters of size 3
		t.Fatalf("none pairs = %d", nonePairs)
	}
	gs := trim.Stats(nonePairs)
	if gs.Records != 3 { // A1: 2 variants, B2: 1
		t.Errorf("records = %d", gs.Records)
	}
	if gs.DuplicatePairs != 1 {
		t.Errorf("pairs = %d", gs.DuplicatePairs)
	}
	if gs.RemovedRecords != 3 || math.Abs(gs.RemovedRecPct-0.5) > 1e-9 {
		t.Errorf("removed = %d (%.2f)", gs.RemovedRecords, gs.RemovedRecPct)
	}
	if gs.RemovedPairs != 5 {
		t.Errorf("removed pairs = %d", gs.RemovedPairs)
	}
	if gs.MaxClusterSize != 2 || math.Abs(gs.AvgClusterSize-1.5) > 1e-9 {
		t.Errorf("cluster sizes = %d / %v", gs.MaxClusterSize, gs.AvgClusterSize)
	}
}

func TestClusterSizeHistogram(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01",
		rec("A1", "A", "X", ""), rec("A1", "B", "X", ""),
		rec("B2", "C", "Y", ""),
	))
	h := d.ClusterSizeHistogram()
	if h[2] != 1 || h[1] != 1 {
		t.Errorf("histogram = %v", h)
	}
}

// nameSim is a simple test scorer.
func nameSim(a, b voter.Record) float64 {
	return simil.DamerauLevenshteinSimilarity(
		a.GetName("first_name"), b.GetName("first_name"))
}

// pairwise is the UpdateScores factory of a stateless per-pair scorer that
// all workers may share.
func pairwise(kind string, f PairScorer) func() ClusterScorer {
	return func() ClusterScorer { return Pairwise(kind, f) }
}

func TestUpdateScoresIncremental(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01",
		rec("A1", "JOHN", "SMITH", ""),
		rec("A1", "JON", "SMITH", ""),
	))
	d.UpdateScores(pairwise("test", nameSim), 1, nil)
	v1 := d.Publish()
	if v1 != 1 {
		t.Fatalf("version = %d", v1)
	}
	c := d.Cluster("A1")
	s10, ok := c.PairScore("test", 1, 0)
	if !ok || s10 <= 0 || s10 >= 1 {
		t.Fatalf("pair score = %v, %v", s10, ok)
	}
	// Symmetric lookup.
	if s01, ok := c.PairScore("test", 0, 1); !ok || s01 != s10 {
		t.Errorf("symmetric lookup = %v, %v", s01, ok)
	}

	// Second import round: only new pairs are scored, old scores unchanged.
	d.ImportSnapshot(snap("2009-01-01", rec("A1", "JOHNNY", "SMITH", "")))
	d.UpdateScores(pairwise("test", func(a, b voter.Record) float64 {
		// A scorer that would disagree with the original on old pairs; if
		// old pairs were recomputed the stored score would change.
		return 0.25
	}), 1, nil)
	d.Publish()
	if s, _ := c.PairScore("test", 1, 0); s != s10 {
		t.Errorf("old pair was recomputed: %v -> %v", s10, s)
	}
	if s, ok := c.PairScore("test", 2, 0); !ok || s != 0.25 {
		t.Errorf("new pair score = %v, %v", s, ok)
	}
	if s, ok := c.PairScore("test", 2, 1); !ok || s != 0.25 {
		t.Errorf("new pair score = %v, %v", s, ok)
	}
}

func TestClusterScoreAggregations(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01",
		rec("A1", "AAAA", "X", ""), rec("A1", "AAAB", "X", ""), rec("A1", "ZZZZ", "X", ""),
	))
	d.UpdateScores(pairwise("test", nameSim), 1, nil)
	c := d.Cluster("A1")
	min, ok := c.ClusterScore("test", AggMin)
	if !ok || min != 0 {
		t.Errorf("min = %v, %v", min, ok)
	}
	mean, ok := c.ClusterScore("test", AggMean)
	if !ok || mean <= min || mean >= 1 {
		t.Errorf("mean = %v", mean)
	}
	// Singleton clusters have no score.
	d2 := NewDataset(RemoveTrimmed)
	d2.ImportSnapshot(snap("2008-01-01", rec("B1", "A", "B", "")))
	d2.UpdateScores(pairwise("test", nameSim), 1, nil)
	if _, ok := d2.Cluster("B1").ClusterScore("test", AggMin); ok {
		t.Error("singleton cluster scored")
	}
}

func TestPairScoresStream(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01",
		rec("A1", "A", "X", ""), rec("A1", "B", "X", ""),
		rec("B2", "C", "Y", ""), rec("B2", "D", "Y", ""),
	))
	d.UpdateScores(pairwise("test", nameSim), 1, nil)
	n := 0
	d.PairScores("test", func(c *Cluster, i, j int, s float64) bool {
		n++
		return true
	})
	if n != 2 {
		t.Errorf("streamed %d pair scores, want 2", n)
	}
	// Early stop.
	n = 0
	d.PairScores("test", func(c *Cluster, i, j int, s float64) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("early stop streamed %d", n)
	}
}

func TestReconstructVersion(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01", rec("A1", "JOHN", "SMITH", "")))
	d.UpdateScores(pairwise("test", nameSim), 1, nil)
	d.Publish()
	d.ImportSnapshot(snap("2009-01-01", rec("A1", "JON", "SMITH", ""), rec("B2", "M", "K", "")))
	d.UpdateScores(pairwise("test", nameSim), 1, nil)
	d.Publish()

	v1 := d.ReconstructVersion(1)
	if v1.NumRecords() != 1 || v1.NumClusters() != 1 {
		t.Errorf("v1 = %d records / %d clusters", v1.NumRecords(), v1.NumClusters())
	}
	v2 := d.ReconstructVersion(2)
	if v2.NumRecords() != 3 || v2.NumClusters() != 2 {
		t.Errorf("v2 = %d records / %d clusters", v2.NumRecords(), v2.NumClusters())
	}
	// v1 contains no cross-version scores.
	if _, ok := v1.Cluster("A1").ClusterScore("test", AggMin); ok {
		t.Error("v1 has pair scores for a singleton")
	}
	// v2 keeps the score between record 0 (v1) and record 1 (v2).
	if _, ok := v2.Cluster("A1").PairScore("test", 1, 0); !ok {
		t.Error("v2 lost the cross-version pair score")
	}
	// The view is monotone: v1 records are a subset of v2 records.
	if v1.Cluster("A1").Records[0].Rec.GetName("first_name") != "JOHN" {
		t.Error("v1 record mismatch")
	}
}

func TestSnapshotRange(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01", rec("A1", "JOHN", "SMITH", "")))
	d.ImportSnapshot(snap("2009-01-01", rec("A1", "JOHN", "SMITH", ""), rec("B2", "M", "K", "")))
	d.ImportSnapshot(snap("2010-01-01", rec("C3", "Z", "W", "")))

	early := d.SnapshotRange("2008-01-01", "2008-12-31")
	if early.NumRecords() != 1 || early.Cluster("A1") == nil {
		t.Errorf("early range = %d records", early.NumRecords())
	}
	mid := d.SnapshotRange("2009-01-01", "2009-12-31")
	// A1's single record also occurred in 2009, so it is included.
	if mid.NumRecords() != 2 {
		t.Errorf("mid range = %d records, want 2", mid.NumRecords())
	}
	late := d.SnapshotRange("2010-01-01", "2010-12-31")
	if late.NumRecords() != 1 || late.Cluster("C3") == nil {
		t.Errorf("late range = %d records", late.NumRecords())
	}
}

func TestDocDBRoundTrip(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	padded := rec("A1", "JOHN", "SMITH  ", "")
	d.ImportSnapshot(snap("2008-01-01", padded, rec("A1", "JON", "SMITH", "")))
	d.UpdateScores(pairwise("test", nameSim), 1, nil)
	d.Publish()
	d.ImportSnapshot(snap("2009-01-01", rec("B2", "MARY", "JONES", "")))
	d.UpdateScores(pairwise("test", nameSim), 1, nil)
	d.Publish()

	db := d.ToDocDB()
	got, err := FromDocDBParallel(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode != d.Mode {
		t.Errorf("mode = %v", got.Mode)
	}
	if got.NumRecords() != d.NumRecords() || got.NumClusters() != d.NumClusters() {
		t.Fatalf("round trip: %d/%d records, %d/%d clusters",
			got.NumRecords(), d.NumRecords(), got.NumClusters(), d.NumClusters())
	}
	// Whitespace survives the sparse storage.
	if got.Cluster("A1").Records[0].Rec.GetName("last_name") != "SMITH  " {
		t.Error("whitespace lost in document storage")
	}
	// Hashes and first versions survive.
	for _, id := range d.NCIDs() {
		a, b := d.Cluster(id), got.Cluster(id)
		for i := range a.Records {
			if a.Records[i].Hash != b.Records[i].Hash {
				t.Fatalf("hash mismatch in %s[%d]", id, i)
			}
			if a.Records[i].FirstVersion != b.Records[i].FirstVersion {
				t.Fatalf("first version mismatch in %s[%d]", id, i)
			}
		}
	}
	// Scores survive.
	s1, ok1 := d.Cluster("A1").PairScore("test", 1, 0)
	s2, ok2 := got.Cluster("A1").PairScore("test", 1, 0)
	if !ok1 || !ok2 || s1 != s2 {
		t.Errorf("scores lost: %v/%v %v/%v", s1, ok1, s2, ok2)
	}
	// Versions survive.
	if len(got.Versions()) != 2 || got.Versions()[1].Number != 2 {
		t.Errorf("versions = %+v", got.Versions())
	}
	// Import stats survive.
	if len(got.Imports()) != 2 || got.Imports()[0].Rows != 2 {
		t.Errorf("imports = %+v", got.Imports())
	}
	// Empty values were stored sparsely: the cluster doc omits them.
	doc := db.Collection(ClustersCollection).Get("A1")
	recs, _ := doc["records"].([]any)
	first, _ := recs[0].(map[string]any)
	if person, ok := first["person"].(map[string]any); ok {
		if _, has := person["midl_name"]; has {
			t.Error("empty attribute stored in document")
		}
	}
}

func TestDocDBPersistenceRoundTrip(t *testing.T) {
	d := NewDataset(RemovePersonData)
	d.ImportSnapshot(snap("2008-01-01", rec("A1", "JOHN", "SMITH", ""), rec("A1", "JON", "SMITH", "")))
	d.UpdateScores(pairwise("test", nameSim), 1, nil)
	d.Publish()

	dir := t.TempDir()
	if err := d.ToDocDB().SaveParallelOpts(dir, docstore.SaveOpts{}); err != nil {
		t.Fatal(err)
	}
	db, err := docstore.LoadParallelOpts(dir, docstore.LoadOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromDocDBParallel(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRecords() != 2 {
		t.Errorf("persisted records = %d", got.NumRecords())
	}
	if s, ok := got.Cluster("A1").PairScore("test", 1, 0); !ok || s <= 0 {
		t.Errorf("persisted score = %v, %v", s, ok)
	}
}

func TestDecodeHash(t *testing.T) {
	var h voter.Hash
	for i := range h {
		h[i] = byte(i * 7)
	}
	got, ok := decodeHash(hashHex(h))
	if !ok || got != h {
		t.Errorf("decodeHash round trip failed")
	}
	if _, ok := decodeHash("zz"); ok {
		t.Error("decodeHash accepted junk")
	}
	if _, ok := decodeHash("abcd"); ok {
		t.Error("decodeHash accepted short input")
	}
}
