package docstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/scanio"
)

// The tentpole invariant: SaveParallelOpts/LoadParallelOpts must reconstruct a
// database identical to the flat sequential path — same documents in the
// same order — for any worker count, and the bytes on disk must not depend
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

// writeFlat lays db out as the flat format earlier releases wrote — one
// <collection>.jsonl, a document per line in insertion order — through
// encoding/json, so the flat reader is tested on files no code of this
// package produced.
func writeFlat(t testing.TB, dir string, db *DB) {
	t.Helper()
	for _, name := range db.CollectionNames() {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		db.Collection(name).ForEach(func(d Document) bool {
			if err := enc.Encode(d); err != nil {
				t.Fatal(err)
			}
			return true
		})
		if err := os.WriteFile(filepath.Join(dir, name+".jsonl"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
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
	flatDir := t.TempDir()
	writeFlat(t, flatDir, db)
	ref, err := LoadParallelOpts(flatDir, LoadOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := dbFingerprint(ref)

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
				t.Errorf("workers=%d: reloaded database differs from the sequential round trip", workers)
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

func TestLoadParallelReadsFlatStores(t *testing.T) {
	// Backward compatibility: a directory in the flat layout earlier
	// releases wrote must load unchanged through the parallel loader.
	db := segmentedFixture(t, 120)
	dir := t.TempDir()
	writeFlat(t, dir, db)
	loaded, err := LoadParallelOpts(dir, LoadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Collection("clusters").Len(), db.Collection("clusters").Len(); got != want {
		t.Errorf("flat load: %d docs, want %d", got, want)
	}
	var wantIDs, gotIDs []string
	db.Collection("clusters").ForEach(func(d Document) bool {
		wantIDs = append(wantIDs, d["_id"].(string))
		return true
	})
	loaded.Collection("clusters").ForEach(func(d Document) bool {
		gotIDs = append(gotIDs, d["_id"].(string))
		return true
	})
	if !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Error("flat load changed document order")
	}
}

func TestSaveFormatsAlternateCleanly(t *testing.T) {
	// A segmented save over a flat store removes the stale flat file once
	// its manifest commits: the two formats never coexist, so a loader can
	// never pick the wrong generation.
	db := segmentedFixture(t, 80)
	dir := t.TempDir()
	writeFlat(t, dir, db)
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
		t.Error("alternating formats lost documents")
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

// countObserver collects docstore counters for assertions.
type countObserver struct {
	mu sync.Mutex
	n  map[string]int64
}

func (o *countObserver) AddN(counter string, n int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.n == nil {
		o.n = map[string]int64{}
	}
	o.n[counter] += n
}

func (o *countObserver) get(counter string) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.n[counter]
}

func TestSegmentedSaveLoadCounters(t *testing.T) {
	db := segmentedFixture(t, 200)
	live := int64(db.Collection("clusters").Len() + db.Collection("dataset").Len())
	dir := t.TempDir()

	saveObs := &countObserver{}
	if err := db.SaveParallelOpts(dir, SaveOpts{Segments: 4, Observer: saveObs}); err != nil {
		t.Fatal(err)
	}
	if got := saveObs.get(CounterDocsWritten); got != live {
		t.Errorf("docs written counter = %d, want %d", got, live)
	}
	// clusters: 4 segments; dataset (1 doc): 1 segment.
	if got := saveObs.get(CounterSegmentsWritten); got != 5 {
		t.Errorf("segments written counter = %d, want 5", got)
	}
	if saveObs.get(CounterBytesWritten) <= 0 {
		t.Error("bytes written counter did not advance")
	}

	loadObs := &countObserver{}
	if _, err := LoadParallelOpts(dir, LoadOpts{Observer: loadObs}); err != nil {
		t.Fatal(err)
	}
	if got := loadObs.get(CounterDocsRead); got != live {
		t.Errorf("docs read counter = %d, want %d", got, live)
	}
	if got := loadObs.get(CounterSegmentsRead); got != 5 {
		t.Errorf("segments read counter = %d, want 5", got)
	}
	if got := loadObs.get(CounterBytesRead); got != saveObs.get(CounterBytesWritten) {
		t.Errorf("bytes read %d != bytes written %d", got, saveObs.get(CounterBytesWritten))
	}
}

func TestLoadFileLongLine(t *testing.T) {
	// Regression test for the named scanner buffer constants: a document
	// line past scanio.InitialBufferBytes must load, one past
	// loadMaxLineBytes must fail loudly with bufio.ErrTooLong, mirroring
	// the voter TSV reader's long-line test.
	dir := t.TempDir()
	path := filepath.Join(dir, "long.jsonl")
	long := fmt.Sprintf("{\"_id\":\"big\",\"v\":%q}\n", strings.Repeat("A", 4*scanio.InitialBufferBytes))
	if err := os.WriteFile(path, []byte("{\"_id\":\"a\"}\n"+long), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCollection("long")
	if err := c.LoadFile(path); err != nil {
		t.Fatalf("%d-byte line: %v", len(long), err)
	}
	if c.Len() != 2 {
		t.Fatalf("loaded %d docs, want 2", c.Len())
	}

	over := filepath.Join(dir, "over.jsonl")
	f, err := os.Create(over)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(f, "{\"_id\":\"big\",\"v\":%q}\n", strings.Repeat("A", loadMaxLineBytes+1)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c2 := NewCollection("over")
	if err := c2.LoadFile(over); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("over-limit line: got %v, want bufio.ErrTooLong", err)
	}
}
