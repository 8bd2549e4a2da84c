package core

import "testing"

// Edge cases of the reconstruction views (§5.1.2): empty datasets,
// out-of-range versions, degenerate snapshot ranges, and similarity-map
// remapping when the filter drops a record in the middle of a cluster.

func TestReconstructVersionEmptyDataset(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	for _, v := range []int{0, 1, 99} {
		view := d.ReconstructVersion(v)
		if view.NumClusters() != 0 || view.NumRecords() != 0 {
			t.Errorf("version %d of an empty dataset = %d clusters / %d records",
				v, view.NumClusters(), view.NumRecords())
		}
	}
	if r := d.SnapshotRange("2008-01-01", "2010-01-01"); r.NumRecords() != 0 {
		t.Errorf("snapshot range of an empty dataset = %d records", r.NumRecords())
	}
}

func TestReconstructVersionOutOfRange(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01", rec("A1", "JOHN", "SMITH", "")))
	d.Publish()
	d.ImportSnapshot(snap("2009-01-01", rec("B2", "MARY", "JONES", "")))
	d.Publish()

	// Version 0 predates every record: the view is empty but valid.
	if v0 := d.ReconstructVersion(0); v0.NumClusters() != 0 {
		t.Errorf("version 0 = %d clusters, want 0", v0.NumClusters())
	}
	// A version beyond the last published one is the full dataset, not an
	// error — monotone growth means "the future" holds at least everything.
	if v9 := d.ReconstructVersion(9); v9.NumRecords() != d.NumRecords() {
		t.Errorf("version 9 = %d records, want %d", v9.NumRecords(), d.NumRecords())
	}
	// Negative versions behave like 0.
	if vn := d.ReconstructVersion(-1); vn.NumClusters() != 0 {
		t.Errorf("version -1 = %d clusters, want 0", vn.NumClusters())
	}
}

func TestSnapshotRangeDegenerate(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01", rec("A1", "JOHN", "SMITH", "")))
	d.ImportSnapshot(snap("2009-01-01", rec("B2", "MARY", "JONES", "")))

	// from == to selects exactly the records that occurred on that date.
	one := d.SnapshotRange("2009-01-01", "2009-01-01")
	if one.NumRecords() != 1 || one.Cluster("B2") == nil {
		t.Errorf("from==to range = %d records", one.NumRecords())
	}
	// An inverted range matches nothing.
	if inv := d.SnapshotRange("2009-01-01", "2008-01-01"); inv.NumRecords() != 0 {
		t.Errorf("inverted range = %d records, want 0", inv.NumRecords())
	}
	// A range outside the history matches nothing.
	if out := d.SnapshotRange("1990-01-01", "1990-12-31"); out.NumRecords() != 0 {
		t.Errorf("out-of-history range = %d records, want 0", out.NumRecords())
	}
}

// TestFilterRemapsSimsAfterMiddleDrop pins remapSims: when a filter removes
// a record from the middle of a cluster, surviving pair scores must follow
// their records to the new indices and every pair with a dropped endpoint
// must vanish.
func TestFilterRemapsSimsAfterMiddleDrop(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01", rec("A1", "JOHN", "SMITH", "")))
	d.ImportSnapshot(snap("2009-01-01", rec("A1", "JON", "SMITH", "")))
	// 2010 re-registers the exact 2008 row (stamping its snapshot trail) and
	// adds a third variant, so the 2010 range keeps records 0 and 2 while
	// dropping record 1.
	d.ImportSnapshot(snap("2010-01-01", rec("A1", "JOHN", "SMITH", ""), rec("A1", "JOHNNY", "SMITH", "")))
	d.UpdateScores(pairwise("test", nameSim), 1, nil)

	c := d.Cluster("A1")
	if len(c.Records) != 3 {
		t.Fatalf("cluster A1 has %d records, want 3", len(c.Records))
	}
	want20, ok := c.PairScore("test", 2, 0)
	if !ok {
		t.Fatal("pair (2,0) unscored in the source dataset")
	}

	view := d.SnapshotRange("2010-01-01", "2010-12-31")
	vc := view.Cluster("A1")
	if vc == nil || len(vc.Records) != 2 {
		t.Fatalf("view cluster = %+v, want 2 records", vc)
	}
	// Old records 0 and 2 survive as view records 0 and 1.
	if vc.Records[0].Rec.GetName("first_name") != "JOHN" ||
		vc.Records[1].Rec.GetName("first_name") != "JOHNNY" {
		t.Fatalf("view kept the wrong records: %s / %s",
			vc.Records[0].Rec.GetName("first_name"), vc.Records[1].Rec.GetName("first_name"))
	}
	got, ok := vc.PairScore("test", 1, 0)
	if !ok {
		t.Fatal("surviving pair (2,0) not remapped to (1,0)")
	}
	if got != want20 {
		t.Errorf("remapped pair score = %v, want %v", got, want20)
	}
	// Every pair with the dropped record as an endpoint is gone: the old
	// index 2 no longer exists, so nothing may score against it.
	for _, ij := range [][2]int{{2, 0}, {2, 1}, {1, 2}} {
		if _, ok := vc.PairScore("test", ij[0], ij[1]); ok {
			t.Errorf("view still scores pair %v", ij)
		}
	}
}
