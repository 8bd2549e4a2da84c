package docstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// The central invariant: SaveParallelOpts/LoadParallelOpts must reconstruct
// the saved database — same documents in the same order — for any worker
// count, and the bytes on disk must not depend
// on the worker count. make race runs these under the
// race detector.

// raceWorkerLadder is the worker ladder the equivalence tests sweep; 7 is
// deliberately coprime with the segment counts in use.
func raceWorkerLadder() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// segmentedFixture builds a DB exercising the interesting shapes: two
// collections, nested documents and arrays, and deletions (nil slots must
// not shift document order on reload).
func segmentedFixture(t testing.TB, docs int) *DB {
	t.Helper()
	db := NewDB()
	c := db.Collection("clusters")
	for i := 0; i < docs; i++ {
		d := D(
			"_id", fmt.Sprintf("c%05d", i),
			"county", fmt.Sprintf("county-%d", i%17),
			"score", float64(i%101)/100,
			"records", []any{D("name", fmt.Sprintf("n%d", i)), D("name", "x")},
		)
		if err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < docs; i += 13 {
		c.Delete(fmt.Sprintf("c%05d", i))
	}
	meta := db.Collection("dataset")
	if err := meta.Insert(D("_id", "meta", "name", "nc", "snapshots", []any{"2012-11-06"})); err != nil {
		t.Fatal(err)
	}
	return db
}

// dbFingerprint captures everything the equivalence check compares: per
// collection the ordered _id sequence and the full documents.
func dbFingerprint(db *DB) map[string]any {
	fp := map[string]any{}
	for _, name := range db.CollectionNames() {
		c := db.Collection(name)
		var ids []string
		var docs []Document
		c.ForEach(func(d Document) bool {
			ids = append(ids, d["_id"].(string))
			docs = append(docs, d)
			return true
		})
		fp[name+"/ids"] = ids
		fp[name+"/docs"] = docs
	}
	return fp
}

func TestSaveLoadParallelMatchesSequential(t *testing.T) {
	db := segmentedFixture(t, 500)
	want := dbFingerprint(db)

	for _, workers := range raceWorkerLadder() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			if err := db.SaveParallelOpts(dir, SaveOpts{Workers: workers, Segments: 8}); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadParallelOpts(dir, LoadOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if got := dbFingerprint(loaded); !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d: reloaded database differs from the saved one", workers)
			}
		})
	}
}

func TestSaveParallelBytesIndependentOfWorkers(t *testing.T) {
	db := segmentedFixture(t, 300)
	var ref map[string][]byte
	for _, workers := range raceWorkerLadder() {
		dir := t.TempDir()
		if err := db.SaveParallelOpts(dir, SaveOpts{Workers: workers, Segments: 5}); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			body, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = body
		}
		if ref == nil {
			ref = files
			continue
		}
		if !reflect.DeepEqual(files, ref) {
			t.Errorf("workers=%d: on-disk bytes differ from workers=%d", workers, raceWorkerLadder()[0])
		}
	}
}

func TestSaveFormatsAlternateCleanly(t *testing.T) {
	// A save into a directory holding a flat file of an earlier release
	// removes it once its manifest commits: the two layouts never coexist.
	db := segmentedFixture(t, 80)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "clusters.jsonl"), []byte(`{"_id":"old"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveParallelOpts(dir, SaveOpts{Segments: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "clusters.jsonl")); !os.IsNotExist(err) {
		t.Error("segmented save left the stale flat file behind")
	}
	loaded, err := LoadParallelOpts(dir, LoadOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Collection("clusters").Len() != db.Collection("clusters").Len() {
		t.Error("the save over a flat file lost documents")
	}
}

func TestSaveParallelShrinksSegmentCount(t *testing.T) {
	// A narrower re-save must delete the higher-numbered segments of the
	// previous save, or the loader would see mixed generations.
	db := segmentedFixture(t, 100)
	dir := t.TempDir()
	if err := db.SaveParallelOpts(dir, SaveOpts{Segments: 6}); err != nil {
		t.Fatal(err)
	}
	if err := db.SaveParallelOpts(dir, SaveOpts{Segments: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "clusters.02.jsonl")); !os.IsNotExist(err) {
		t.Error("stale segment 02 survived the narrower save")
	}
	loaded, err := LoadParallelOpts(dir, LoadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Collection("clusters").Len() != db.Collection("clusters").Len() {
		t.Error("narrower re-save lost documents")
	}
}

func TestSegmentedEmptyCollection(t *testing.T) {
	db := NewDB()
	db.Collection("empty")
	dir := t.TempDir()
	if err := db.SaveParallelOpts(dir, SaveOpts{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadParallelOpts(dir, LoadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if names := loaded.CollectionNames(); len(names) != 1 || names[0] != "empty" {
		t.Errorf("empty collection round trip: %v", names)
	}
	if loaded.Collection("empty").Len() != 0 {
		t.Error("phantom documents in empty collection")
	}
}

func TestSegmentCountDeterministic(t *testing.T) {
	cases := []struct {
		docs, requested, want int
	}{
		{0, 0, 1},
		{10, 0, 1},
		{segmentTargetDocs + 1, 0, 2},
		{segmentTargetDocs * 1000, 0, maxSegments},
		{100, 8, 8},
		{3, 8, 3},      // never more segments than documents
		{100, 500, 64}, // capped
	}
	for _, c := range cases {
		if got := segmentCount(c.docs, c.requested); got != c.want {
			t.Errorf("segmentCount(%d, %d) = %d, want %d", c.docs, c.requested, got, c.want)
		}
	}
}

func TestSegmentedSaveLoadCounters(t *testing.T) {
	db := segmentedFixture(t, 200)
	live := int64(db.Collection("clusters").Len() + db.Collection("dataset").Len())
	dir := t.TempDir()

	saveObs := obs.NewMetrics()
	if err := db.SaveParallelOpts(dir, SaveOpts{Segments: 4, Observer: saveObs}); err != nil {
		t.Fatal(err)
	}
	if got := saveObs.Counter(CounterDocsWritten); got != live {
		t.Errorf("docs written counter = %d, want %d", got, live)
	}
	// clusters: 4 segments; dataset (1 doc): 1 segment.
	if got := saveObs.Counter(CounterSegmentsWritten); got != 5 {
		t.Errorf("segments written counter = %d, want 5", got)
	}
	if saveObs.Counter(CounterBytesWritten) <= 0 {
		t.Error("bytes written counter did not advance")
	}
	// A full save reuses no segment and reports that zero.
	if n, ok := saveObs.Snapshot().Counters[CounterSegmentsReused]; !ok || n != 0 {
		t.Errorf("segments reused after a full save: %d (reported %v), want a reported 0", n, ok)
	}

	loadObs := obs.NewMetrics()
	if _, err := LoadParallelOpts(dir, LoadOpts{Observer: loadObs}); err != nil {
		t.Fatal(err)
	}
	if got := loadObs.Counter(CounterDocsRead); got != live {
		t.Errorf("docs read counter = %d, want %d", got, live)
	}
	if got := loadObs.Counter(CounterSegmentsRead); got != 5 {
		t.Errorf("segments read counter = %d, want 5", got)
	}
	if got := loadObs.Counter(CounterBytesRead); got != saveObs.Counter(CounterBytesWritten) {
		t.Errorf("bytes read %d != bytes written %d", got, saveObs.Counter(CounterBytesWritten))
	}
}
