package core

import (
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/voter"
)

// writeDeltaFile writes rows as one TSV snapshot file and returns its path.
func writeDeltaFile(t *testing.T, dir string, s voter.Snapshot) string {
	t.Helper()
	path, err := voter.WriteSnapshotFile(dir, s)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestApplySnapshotDeltaEquivalence is the core contract: applying a file as
// a delta leaves the dataset bit-identical to the reference import of the
// same file, for every removal mode and worker count.
func TestApplySnapshotDeltaEquivalence(t *testing.T) {
	paths := writeSnapshotFiles(t, 33, 150, 3)
	workerCounts := []int{1, 2, 7, runtime.GOMAXPROCS(0)}
	for _, mode := range []RemovalMode{RemoveNone, RemoveExact, RemoveTrimmed, RemovePersonData} {
		plain := NewDataset(mode)
		var plainStats []ImportStats
		for _, p := range paths {
			plainStats = append(plainStats, importReference(t, plain, p))
			plain.Publish()
		}

		for _, workers := range workerCounts {
			dd := NewDataset(mode)
			for i, p := range paths {
				dl, err := dd.ApplySnapshotDelta(p, DeltaOptions{Workers: workers, ChunkBytes: 1 << 12})
				if err != nil {
					t.Fatalf("mode %v workers %d: %v", mode, workers, err)
				}
				if dl.Stats.ImportStats != plainStats[i] {
					t.Errorf("mode %v workers %d file %d: stats %+v, want %+v",
						mode, workers, i, dl.Stats.ImportStats, plainStats[i])
				}
				dd.Publish()
			}
			if !reflect.DeepEqual(plain, dd) {
				t.Errorf("mode %v workers %d: delta-applied dataset differs from plain import", mode, workers)
			}
		}
	}
}

// TestDeltaClassification pins the four row classes against a hand-built
// base: a new NCID, a new record in an existing cluster, a pure snapshot
// stamp on a known record, and a fully unchanged row.
func TestDeltaClassification(t *testing.T) {
	dir := t.TempDir()
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01",
		rec("A1", "JOHN", "SMITH", ""),
		rec("B2", "MARY", "JONES", ""),
		rec("C3", "PAUL", "MILLER", ""),
	))
	d.Publish()

	path := writeDeltaFile(t, dir, snap("2008-03-01",
		rec("D4", "NEW", "VOTER", ""),  // new NCID: touch + dirty
		rec("A1", "JON", "SMITH", ""),  // new record, known cluster: touch + dirty
		rec("B2", "MARY", "JONES", ""), // known record, new date: touch only
		rec("B2", "MARY", "JONES", ""), // same row again: unchanged (date already stamped)
	))
	dl, err := d.ApplySnapshotDelta(path, DeltaOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dl.touchedIDs(), []string{"A1", "B2", "D4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("touchedIDs = %v, want %v", got, want)
	}
	if got, want := dl.Dirty(), []string{"A1", "D4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Dirty = %v, want %v", got, want)
	}
	st := dl.Stats
	if st.Rows != 4 || st.NewRecords != 2 || st.NewObjects != 1 || st.UnchangedRows != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.TouchedClusters != 3 || st.DirtyClusters != 2 {
		t.Errorf("cluster counts = %+v", st)
	}
	ids := dl.DirtyIDs()
	if !reflect.DeepEqual(sortedSet(ids[ClustersCollection]), dl.touchedIDs()) {
		t.Errorf("DirtyIDs clusters = %v", ids)
	}
	if _, ok := ids[MetaCollection]; ok {
		t.Errorf("DirtyIDs must not scope the meta collection")
	}

	// C3 was untouched; RemoveNone duplicates always touch.
	dn := NewDataset(RemoveNone)
	dn.ImportSnapshot(snap("2008-01-01", rec("A1", "JOHN", "SMITH", "")))
	p2 := writeDeltaFile(t, dir, snap("2008-01-01", rec("A1", "JOHN", "SMITH", "")))
	dl2, err := dn.ApplySnapshotDelta(p2, DeltaOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dl2.Dirty(), []string{"A1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("RemoveNone duplicate Dirty = %v, want %v", got, want)
	}
}

// TestDeltaSubsetScoringMatchesFull proves the rescoring scope: scoring only
// Dirty() after a delta yields similarity maps identical to a full pass over
// the grown dataset, because old pairs are never rescored.
func TestDeltaSubsetScoringMatchesFull(t *testing.T) {
	paths := writeSnapshotFiles(t, 44, 120, 3)
	scorer := func(a, b voter.Record) float64 {
		if a.Values[voter.IdxLastName] == b.Values[voter.IdxLastName] {
			return 1
		}
		return 0.25
	}
	const kind = "test_kind"

	full := NewDataset(RemoveTrimmed)
	inc := NewDataset(RemoveTrimmed)
	for _, p := range paths {
		importReference(t, full, p)
		full.Publish()
		full.UpdateScores(pairwise(kind, scorer), 1, nil)

		dl, err := inc.ApplySnapshotDelta(p, DeltaOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		inc.Publish()
		inc.UpdateScores(pairwise(kind, scorer), 3, dl.Dirty())
	}
	if !reflect.DeepEqual(full, inc) {
		t.Fatal("dirty-subset scoring diverged from full scoring")
	}
}

// TestUpdateScoresScope pins the scope convention: nil scores everything, an
// empty non-nil slice scores nothing, unknown NCIDs are ignored.
func TestUpdateScoresScope(t *testing.T) {
	mk := func() *Dataset {
		d := NewDataset(RemoveTrimmed)
		d.ImportSnapshot(snap("2008-01-01",
			rec("A1", "JOHN", "SMITH", ""), rec("A1", "JON", "SMITH", "")))
		d.Publish()
		return d
	}
	scorer := func(a, b voter.Record) float64 { return 0.5 }

	d := mk()
	d.UpdateScores(pairwise("k", scorer), 1, []string{})
	if _, ok := d.Cluster("A1").PairScore("k", 1, 0); ok {
		t.Fatal("empty scope scored a pair")
	}
	d.UpdateScores(pairwise("k", scorer), 1, nil)
	if _, ok := d.Cluster("A1").PairScore("k", 1, 0); !ok {
		t.Fatal("nil scope did not score")
	}
	d2 := mk()
	d2.UpdateScores(pairwise("k", scorer), 4, []string{"missing", "A1"})
	if _, ok := d2.Cluster("A1").PairScore("k", 1, 0); !ok {
		t.Fatal("scoped parallel scoring missed A1")
	}
}

// TestFingerprintIndexTracksDeltas drives one index across delta rounds:
// Verify holds after each refresh, Diff against a pre-apply copy equals the
// touched set, and a deliberately stale index reports ErrStaleIndex while
// the dataset and delta sets stay correct.
func TestFingerprintIndexTracksDeltas(t *testing.T) {
	paths := writeSnapshotFiles(t, 55, 100, 3)
	d := NewDataset(RemoveTrimmed)
	ix := BuildFingerprintIndex(d)
	for _, p := range paths {
		before := BuildFingerprintIndex(d)
		dl, err := d.ApplySnapshotDelta(p, DeltaOptions{Workers: 2, Index: ix})
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(p), err)
		}
		d.Publish()
		if err := ix.Verify(d); err != nil {
			t.Fatalf("index stale after refresh: %v", err)
		}
		after := BuildFingerprintIndex(d)
		if got := before.Diff(after); !reflect.DeepEqual(got, dl.touchedIDs()) {
			t.Errorf("%s: fingerprint diff %d ids, touched %d ids",
				filepath.Base(p), len(got), len(dl.touchedIDs()))
		}
	}

	// A stale index: drop one touched cluster's entry behind a fresh build.
	stale := BuildFingerprintIndex(d)
	plain := NewDataset(RemoveTrimmed)
	for _, p := range paths {
		importReference(t, plain, p)
		plain.Publish()
	}
	dir := t.TempDir()
	ncid := d.NCIDs()[0]
	c := d.Cluster(ncid)
	path := writeDeltaFile(t, dir, snap("2099-01-01",
		rec(ncid, "FORCED", "CHANGE", "")))
	stale.fps[ncid] = ClusterFP{Records: c.Records[0].FirstVersion + 99}
	dl, err := d.ApplySnapshotDelta(path, DeltaOptions{Workers: 1, Index: stale})
	if !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("err = %v, want ErrStaleIndex", err)
	}
	if dl == nil || !reflect.DeepEqual(dl.touchedIDs(), []string{ncid}) {
		t.Fatalf("delta sets not returned on stale index: %+v", dl)
	}
	importReference(t, plain, path)
	d.Publish()
	plain.Publish()
	if !reflect.DeepEqual(plain, d) {
		t.Error("stale-index apply diverged from plain import")
	}
	// Refresh ran despite the error, so the index is current again.
	if err := stale.Verify(d); err != nil {
		t.Errorf("index not refreshed after stale apply: %v", err)
	}
}

// TestFingerprintIndexVerifyCountsMismatch covers the size-mismatch branch.
func TestFingerprintIndexVerifyCountsMismatch(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01", rec("A1", "JOHN", "SMITH", "")))
	ix := BuildFingerprintIndex(d)
	d.ImportSnapshot(snap("2008-03-01", rec("B2", "MARY", "JONES", "")))
	if err := ix.Verify(d); !errors.Is(err, ErrStaleIndex) {
		t.Fatalf("Verify = %v, want ErrStaleIndex", err)
	}
	if fp, ok := ix.fps["A1"]; !ok || fp.Records != 1 || fp.LastSeen != "2008-01-01" {
		t.Errorf("index entry A1 = %+v %v", fp, ok)
	}
	ix.Refresh(d, []string{"B2", "ghost"})
	if err := ix.Verify(d); err != nil {
		t.Fatalf("Verify after refresh: %v", err)
	}
	if ix.Len() != 2 {
		t.Errorf("Len = %d, want 2", ix.Len())
	}
}

// TestDeltaMerge folds two deltas and checks set union plus summed stats.
func TestDeltaMerge(t *testing.T) {
	dir := t.TempDir()
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01", rec("A1", "JOHN", "SMITH", "")))
	d.Publish()
	p1 := writeDeltaFile(t, dir, snap("2008-03-01",
		rec("A1", "JON", "SMITH", ""), rec("B2", "MARY", "JONES", "")))
	p2 := writeDeltaFile(t, dir, snap("2008-05-01",
		rec("B2", "MARY", "JONES", ""), rec("C3", "PAUL", "MILLER", "")))
	dl1, err := d.ApplySnapshotDelta(p1, DeltaOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dl2, err := d.ApplySnapshotDelta(p2, DeltaOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dl1.Merge(dl2)
	if got, want := dl1.touchedIDs(), []string{"A1", "B2", "C3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("merged touchedIDs = %v, want %v", got, want)
	}
	if got, want := dl1.Dirty(), []string{"A1", "B2", "C3"}; !reflect.DeepEqual(got, want) {
		t.Errorf("merged Dirty = %v, want %v", got, want)
	}
	st := dl1.Stats
	if st.Rows != 4 || st.NewObjects != 2 || st.TouchedClusters != 3 || st.DirtyClusters != 3 {
		t.Errorf("merged stats = %+v", st)
	}
}

// TestDeltaEmptyDirtyIsNotNil pins the Dirty() convention an empty delta
// must keep: non-nil empty, so UpdateScores scores nothing rather than
// falling back to everything.
func TestDeltaEmptyDirtyIsNotNil(t *testing.T) {
	dir := t.TempDir()
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01", rec("A1", "JOHN", "SMITH", "")))
	d.Publish()
	// Same row, same date: nothing changes.
	p := writeDeltaFile(t, dir, snap("2008-01-01", rec("A1", "JOHN", "SMITH", "")))
	dl, err := d.ApplySnapshotDelta(p, DeltaOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if dl.Dirty() == nil || len(dl.Dirty()) != 0 {
		t.Fatalf("Dirty = %#v, want non-nil empty", dl.Dirty())
	}
	if dl.Stats.UnchangedRows != 1 || dl.Stats.TouchedClusters != 0 {
		t.Errorf("stats = %+v", dl.Stats)
	}
}
