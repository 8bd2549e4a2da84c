package docstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// The dirty-segment save contract: given a stable Stride layout and a dirty
// set covering every changed document, the save must leave the directory
// byte-identical to a from-scratch full save of the same state at the same
// stride, while actually rewriting only the segments holding dirty (or
// layout-shifted) documents. Anything it cannot prove safe — no previous
// manifest, a rejected manifest, a changed segment count — falls back to a
// full rewrite instead of stitching a mixed-generation manifest.

// strideDB builds a single-collection DB of docs sequential documents where
// document i carries payload(i).
func strideDB(t testing.TB, docs int, payload func(i int) string) *DB {
	t.Helper()
	db := NewDB()
	c := db.Collection("clusters")
	for i := 0; i < docs; i++ {
		if err := c.Insert(D("_id", fmt.Sprintf("c%05d", i), "v", payload(i))); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// dirBytes reads every file of a directory.
func dirBytes(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func TestSegmentRangesStride(t *testing.T) {
	got := segmentRanges(10, 99, 4)
	want := [][2]int{{0, 4}, {4, 8}, {8, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stride ranges = %v, want %v", got, want)
	}
	if got := segmentRanges(0, 1, 4); !reflect.DeepEqual(got, [][2]int{{0, 0}}) {
		t.Errorf("empty stride ranges = %v", got)
	}
	// stride <= 0 keeps the balanced partition.
	if got := segmentRanges(10, 2, 0); !reflect.DeepEqual(got, [][2]int{{0, 5}, {5, 10}}) {
		t.Errorf("balanced ranges = %v", got)
	}
}

// TestDirtySaveReusesCleanSegments is the core reuse oracle: a dirty save
// over a grown-and-modified state must write only the affected segments yet
// leave the directory byte-identical to a full save of the same state.
func TestDirtySaveReusesCleanSegments(t *testing.T) {
	const stride = 50
	base := func(i int) string { return fmt.Sprintf("base-%d", i) }
	dir := t.TempDir()
	if err := strideDB(t, 500, base).SaveParallelOpts(dir, SaveOpts{Stride: stride}); err != nil {
		t.Fatal(err)
	}

	// New state: one modified document in segment 2, plus appended tail docs.
	changed := func(i int) string {
		if i == 120 {
			return "modified"
		}
		return base(i)
	}
	next := strideDB(t, 510, changed)
	m := obs.NewMetrics()
	dirty := map[string]map[string]bool{"clusters": {
		"c00120": true, // modified
	}}
	for i := 500; i < 510; i++ {
		dirty["clusters"][fmt.Sprintf("c%05d", i)] = true
	}
	if err := next.SaveParallelOpts(dir, SaveOpts{Stride: stride, Dirty: dirty, Observer: m}); err != nil {
		t.Fatal(err)
	}

	// Byte-identity with a from-scratch full save of the same state.
	fullDir := t.TempDir()
	if err := next.SaveParallelOpts(fullDir, SaveOpts{Stride: stride}); err != nil {
		t.Fatal(err)
	}
	if got, want := dirBytes(t, dir), dirBytes(t, fullDir); !reflect.DeepEqual(got, want) {
		t.Fatal("dirty save directory differs from a full save of the same state")
	}

	// 510 docs at stride 50 → 11 segments; only segment 2 (c00120) and the
	// tail segment 10 hold dirty ids. Segment 10 is new (not in the old
	// manifest), so 9 segments are reused.
	if w := m.Counter(CounterSegmentsWritten); w != 2 {
		t.Errorf("segments written = %d, want 2", w)
	}
	if r := m.Counter(CounterSegmentsReused); r != 9 {
		t.Errorf("segments reused = %d, want 9", r)
	}
	if f := m.Counter(CounterDeltaFullRewrites); f != 0 {
		t.Errorf("full rewrites = %d, want 0", f)
	}

	if loaded, err := LoadParallelOpts(dir, LoadOpts{}); err != nil {
		t.Fatal(err)
	} else if !reflect.DeepEqual(dbFingerprint(loaded), dbFingerprint(next)) {
		t.Error("reloaded dirty-saved database differs from the in-memory state")
	}
}

// TestDirtySaveSegmentCountChangeFallsBack is the mixed-generation
// regression: when the segment count changed since the last save (here: the
// last full save used a different layout entirely), the dirty save must
// fall back to a full rewrite rather than reuse any old segment.
func TestDirtySaveSegmentCountChangeFallsBack(t *testing.T) {
	payload := func(i int) string { return fmt.Sprintf("p%d", i) }
	dir := t.TempDir()
	// Previous generation: 4 balanced segments of 200 docs.
	if err := strideDB(t, 200, payload).SaveParallelOpts(dir, SaveOpts{Segments: 4}); err != nil {
		t.Fatal(err)
	}

	// Dirty save at stride 50 over 210 docs → 5 segments ≠ 4: full rewrite.
	next := strideDB(t, 210, payload)
	m := obs.NewMetrics()
	dirty := map[string]map[string]bool{"clusters": {}}
	for i := 200; i < 210; i++ {
		dirty["clusters"][fmt.Sprintf("c%05d", i)] = true
	}
	if err := next.SaveParallelOpts(dir, SaveOpts{Stride: 50, Dirty: dirty, Observer: m}); err != nil {
		t.Fatal(err)
	}
	if f := m.Counter(CounterDeltaFullRewrites); f != 1 {
		t.Errorf("full rewrites = %d, want 1", f)
	}
	if r := m.Counter(CounterSegmentsReused); r != 0 {
		t.Errorf("segments reused = %d, want 0", r)
	}
	if w := m.Counter(CounterSegmentsWritten); w != 5 {
		t.Errorf("segments written = %d, want 5", w)
	}

	fullDir := t.TempDir()
	if err := next.SaveParallelOpts(fullDir, SaveOpts{Stride: 50}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dirBytes(t, dir), dirBytes(t, fullDir)) {
		t.Fatal("fallback save directory differs from a full save")
	}
}

// TestDirtySaveFirstSaveFallsBack: no previous manifest means nothing can be
// reused; the save still succeeds as a full rewrite.
func TestDirtySaveFirstSaveFallsBack(t *testing.T) {
	db := strideDB(t, 120, func(i int) string { return "x" })
	m := obs.NewMetrics()
	dir := t.TempDir()
	err := db.SaveParallelOpts(dir, SaveOpts{
		Stride:   50,
		Dirty:    map[string]map[string]bool{"clusters": {}},
		Observer: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if f := m.Counter(CounterDeltaFullRewrites); f != 1 {
		t.Errorf("full rewrites = %d, want 1", f)
	}
	if loaded, err := LoadParallelOpts(dir, LoadOpts{}); err != nil || loaded.Collection("clusters").Len() != 120 {
		t.Fatalf("reload after fallback: %v", err)
	}
}

// TestDirtySaveRequiresStride: Dirty without a stable stride layout is
// ignored — the save is a plain full rewrite and reuses nothing.
func TestDirtySaveRequiresStride(t *testing.T) {
	db := strideDB(t, 100, func(i int) string { return "x" })
	dir := t.TempDir()
	if err := db.SaveParallelOpts(dir, SaveOpts{Segments: 2}); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	err := db.SaveParallelOpts(dir, SaveOpts{
		Segments: 2,
		Dirty:    map[string]map[string]bool{"clusters": {}},
		Observer: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r := m.Counter(CounterSegmentsReused); r != 0 {
		t.Errorf("segments reused = %d, want 0 without Stride", r)
	}
	if f := m.Counter(CounterDeltaFullRewrites); f != 0 {
		t.Errorf("full rewrites = %d, want 0 (mode never engaged)", f)
	}
	if w := m.Counter(CounterSegmentsWritten); w != 2 {
		t.Errorf("segments written = %d, want 2", w)
	}
}

// TestDirtySaveMissingSegmentFileRewrites: a reusable-looking manifest entry
// whose file vanished from disk must be rewritten, not trusted.
func TestDirtySaveMissingSegmentFileRewrites(t *testing.T) {
	payload := func(i int) string { return fmt.Sprintf("p%d", i) }
	dir := t.TempDir()
	db := strideDB(t, 150, payload)
	if err := db.SaveParallelOpts(dir, SaveOpts{Stride: 50}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, segmentFileName("clusters", 1))); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	err := db.SaveParallelOpts(dir, SaveOpts{
		Stride:   50,
		Dirty:    map[string]map[string]bool{"clusters": {}},
		Observer: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w := m.Counter(CounterSegmentsWritten); w != 1 {
		t.Errorf("segments written = %d, want 1 (the vanished one)", w)
	}
	if loaded, err := LoadParallelOpts(dir, LoadOpts{}); err != nil || loaded.Collection("clusters").Len() != 150 {
		t.Fatalf("reload after heal: %v", err)
	}
}

// TestStrideSaveManySegments pins that the stride layout survives past the
// two-digit file-name range the balanced path never exceeds.
func TestStrideSaveManySegments(t *testing.T) {
	db := strideDB(t, 505, func(i int) string { return "x" })
	dir := t.TempDir()
	if err := db.SaveParallelOpts(dir, SaveOpts{Stride: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "clusters.100.jsonl")); err != nil {
		t.Fatalf("three-digit segment missing: %v", err)
	}
	if loaded, err := LoadParallelOpts(dir, LoadOpts{}); err != nil || loaded.Collection("clusters").Len() != 505 {
		t.Fatalf("reload of 101-segment store: %v", err)
	}
}

// TestSegmentCacheReload pins the ncserve reload path: a load through a
// SegmentCache after a dirty-segment save re-decodes only the rewritten
// segments, and the cached load is indistinguishable from a cold one.
func TestSegmentCacheReload(t *testing.T) {
	const stride = 50
	base := func(i int) string { return fmt.Sprintf("base-%d", i) }
	dir := t.TempDir()
	if err := strideDB(t, 500, base).SaveParallelOpts(dir, SaveOpts{Stride: stride}); err != nil {
		t.Fatal(err)
	}

	cache := NewSegmentCache()
	cold := obs.NewMetrics()
	if _, err := LoadParallelOpts(dir, LoadOpts{Cache: cache, Observer: cold}); err != nil {
		t.Fatal(err)
	}
	if c := cold.Counter(CounterSegmentsCached); c != 0 {
		t.Errorf("cold load cached %d segments, want 0", c)
	}
	if r := cold.Counter(CounterSegmentsRead); r != 10 {
		t.Errorf("cold load read %d segments, want 10", r)
	}

	// Delta round: one modified document plus tail growth, dirty save.
	changed := func(i int) string {
		if i == 120 {
			return "modified"
		}
		return base(i)
	}
	next := strideDB(t, 510, changed)
	dirty := map[string]map[string]bool{"clusters": {"c00120": true}}
	for i := 500; i < 510; i++ {
		dirty["clusters"][fmt.Sprintf("c%05d", i)] = true
	}
	if err := next.SaveParallelOpts(dir, SaveOpts{Stride: stride, Dirty: dirty}); err != nil {
		t.Fatal(err)
	}

	warm := obs.NewMetrics()
	reloaded, err := LoadParallelOpts(dir, LoadOpts{Cache: cache, Observer: warm})
	if err != nil {
		t.Fatal(err)
	}
	// 11 segments now: segment 2 (the modified doc) and the new tail segment
	// were rewritten, so only those two decode; the other 9 hit the cache.
	if c := warm.Counter(CounterSegmentsCached); c != 9 {
		t.Errorf("warm load cached %d segments, want 9", c)
	}
	if r := warm.Counter(CounterSegmentsRead); r != 2 {
		t.Errorf("warm load read %d segments, want 2", r)
	}
	fresh, err := LoadParallelOpts(dir, LoadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dbFingerprint(reloaded), dbFingerprint(fresh)) {
		t.Error("cached reload diverges from a cold load")
	}
	// Superseded generations are evicted: one entry per live segment.
	if n := cache.Len(); n != 11 {
		t.Errorf("cache holds %d segments, want 11", n)
	}
}

// TestSegmentCacheHoldsOneGenerationPerFile pins the cache's size to the
// store's: after a dirty save rewrote half the segments and a reload decoded
// them, the cache holds exactly one entry per live segment.
func TestSegmentCacheHoldsOneGenerationPerFile(t *testing.T) {
	const stride, docs = 10, 200
	dir := t.TempDir()
	base := func(i int) string { return fmt.Sprintf("base-%d", i) }
	if err := strideDB(t, docs, base).SaveParallelOpts(dir, SaveOpts{Stride: stride}); err != nil {
		t.Fatal(err)
	}
	cache := NewSegmentCache()
	if _, err := LoadParallelOpts(dir, LoadOpts{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	// Touch one document in every second segment; the payload changes length,
	// so byte count and CRC both move.
	dirty := map[string]bool{}
	changed := func(i int) string {
		if i%(2*stride) == 0 {
			dirty[fmt.Sprintf("c%05d", i)] = true
			return "rewritten"
		}
		return base(i)
	}
	next := strideDB(t, docs, changed)
	if err := next.SaveParallelOpts(dir, SaveOpts{Stride: stride, Dirty: map[string]map[string]bool{"clusters": dirty}}); err != nil {
		t.Fatal(err)
	}
	warm := obs.NewMetrics()
	if _, err := LoadParallelOpts(dir, LoadOpts{Cache: cache, Observer: warm}); err != nil {
		t.Fatal(err)
	}
	if r := warm.Counter(CounterSegmentsRead); r != docs/stride/2 {
		t.Errorf("reload read %d segments, want %d", r, docs/stride/2)
	}
	if n := cache.Len(); n != docs/stride {
		t.Errorf("cache holds %d segments, the store has %d", n, docs/stride)
	}
}

// TestSegmentCacheReplacesSameCRC covers the generation the CRC alone cannot
// tell apart: a rewrite with an equal CRC and another byte count replaces the
// cached entry — the old one neither answers for the new triple nor stays.
func TestSegmentCacheReplacesSameCRC(t *testing.T) {
	cache := NewSegmentCache()
	old := segmentInfo{File: "clusters.00.jsonl", Docs: 1, Bytes: 10, CRC32: 0xfeed}
	cache.store(old, []Document{{"_id": "old"}})
	next := old
	next.Bytes = 12
	if cache.lookup(next) != nil {
		t.Fatal("an entry of 10 bytes answered for a segment of 12")
	}
	cache.store(next, []Document{{"_id": "new"}})
	if n := cache.Len(); n != 1 {
		t.Errorf("cache holds %d entries for one file, want 1", n)
	}
	if cache.lookup(old) != nil {
		t.Error("the superseded generation is still served")
	}
	if docs := cache.lookup(next); len(docs) != 1 || docs[0]["_id"] != "new" {
		t.Errorf("lookup of the current generation = %v", docs)
	}
	// A manifest that disagrees on the document count is another generation.
	next.Docs = 2
	if cache.lookup(next) != nil {
		t.Error("an entry of 1 document answered for a segment of 2")
	}
}
