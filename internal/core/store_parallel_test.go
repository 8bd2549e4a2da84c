package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/voter"
)

// TestFromDocDBParallelMatchesSequential pins the parallel store loader to
// the sequential one: same cluster order, same contents, for every worker
// count on the race ladder.
func TestFromDocDBParallelMatchesSequential(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	var recs []voter.Record
	for i := 0; i < 60; i++ {
		recs = append(recs,
			rec(fmt.Sprintf("P%03d", i), "ANNA", fmt.Sprintf("SMITH%d", i), ""),
			rec(fmt.Sprintf("P%03d", i), "ANA", fmt.Sprintf("SMITH%d", i), ""))
	}
	d.ImportSnapshot(snap("2008-01-01", recs...))
	d.UpdateScores(pairwise("test", nameSim), 1, nil)
	d.Publish()
	db := d.ToDocDB()

	want, err := FromDocDBParallel(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 7, runtime.GOMAXPROCS(0)} {
		got, err := FromDocDBParallel(db, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got.NCIDs(), want.NCIDs()) {
			t.Fatalf("workers=%d: cluster order diverged", workers)
		}
		for _, id := range want.NCIDs() {
			if !reflect.DeepEqual(got.Cluster(id), want.Cluster(id)) {
				t.Fatalf("workers=%d: cluster %s diverged", workers, id)
			}
		}
		if got.NumRecords() != want.NumRecords() {
			t.Fatalf("workers=%d: %d records, want %d", workers, got.NumRecords(), want.NumRecords())
		}
	}
}
