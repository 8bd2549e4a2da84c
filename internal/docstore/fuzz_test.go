package docstore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Native fuzz targets for the persistence codecs: arbitrary bytes in the
// JSON-lines loader and in the segmented manifest+segment pair must either
// load cleanly or fail with an error — never panic, never allocate
// proportionally to attacker-controlled numbers, and never read outside the
// store directory. make fuzz-smoke runs these (and the voter/simil targets)
// for a bounded time per target; testdata/fuzz holds the seed corpus,
// including regression seeds for crashes fuzzing has found.

// FuzzLoadFile feeds arbitrary bytes to the flat JSON-lines loader. A
// successful load must be deterministic: loading the same bytes twice
// yields identical collections.
func FuzzLoadFile(f *testing.F) {
	f.Add([]byte(`{"_id":"a","n":1}` + "\n" + `{"_id":"b","nested":{"x":[1,2]}}` + "\n"))
	f.Add([]byte(`{"_id":"a"}` + "\n" + `{"_id":"a"}` + "\n")) // duplicate id
	f.Add([]byte(`{"no_id":true}` + "\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"_id":"q","v":"` + strings.Repeat("A", 1<<10) + `"}` + "\n"))
	f.Add([]byte{0xff, 0xfe, '{', '}'})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "c.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c1 := NewCollection("c")
		err1 := c1.LoadFile(path)
		c2 := NewCollection("c")
		err2 := c2.LoadFile(path)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic load: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if c1.Len() != c2.Len() {
			t.Fatalf("nondeterministic load: %d vs %d docs", c1.Len(), c2.Len())
		}
	})
}

// FuzzLoadSegmented feeds arbitrary manifest bytes plus one segment file to
// the segmented loader. The manifest is attacker-controlled on disk, so its
// numbers (document counts, byte counts, file names) must be validated
// before anything is sized or opened from them.
func FuzzLoadSegmented(f *testing.F) {
	// A well-formed pair, produced by the save path's own encoding.
	seg := []byte(`{"_id":"a","n":1}` + "\n" + `{"_id":"b","n":2}` + "\n")
	man := []byte(`{"version":1,"collection":"c","docs":2,"segments":[{"file":"c.00.jsonl","docs":2,"bytes":36,"crc32":0}]}`)
	f.Add(man, seg)
	f.Add([]byte(`{"version":1,"collection":"c","docs":0,"segments":[]}`), []byte("")) // empty store
	f.Add([]byte(`not json`), seg)
	f.Add([]byte(`{"version":99,"collection":"c","docs":0,"segments":[]}`), seg)
	// Hostile numbers and names a corrupt or malicious manifest can carry;
	// the negative-docs seed is the crasher fuzzing found (makeslice panic
	// in readSegment before manifests were validated).
	f.Add([]byte(`{"version":1,"collection":"c","docs":-1,"segments":[{"file":"c.00.jsonl","docs":-1,"bytes":0,"crc32":0}]}`), []byte(""))
	f.Add([]byte(`{"version":1,"collection":"c","docs":1000000000000,"segments":[{"file":"c.00.jsonl","docs":1000000000000,"bytes":0,"crc32":0}]}`), []byte(""))
	f.Add([]byte(`{"version":1,"collection":"c","docs":0,"segments":[{"file":"../../../etc/passwd","docs":0,"bytes":0,"crc32":0}]}`), []byte(""))
	f.Fuzz(func(t *testing.T, manifest, segment []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "c.manifest.json"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "c.00.jsonl"), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := LoadParallelOpts(dir, LoadOpts{})
		if err != nil {
			return
		}
		// A load the manifest admits must be deterministic and re-savable:
		// the round trip through SaveParallelOpts/LoadParallelOpts preserves every
		// document.
		redir := t.TempDir()
		if err := db.SaveParallelOpts(redir, SaveOpts{Segments: 2}); err != nil {
			t.Fatalf("re-save of successfully loaded store: %v", err)
		}
		again, err := LoadParallelOpts(redir, LoadOpts{})
		if err != nil {
			t.Fatalf("re-load of re-saved store: %v", err)
		}
		if got, want := collectDocs(again), collectDocs(db); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed documents:\n got %v\nwant %v", got, want)
		}
	})
}

// collectDocs snapshots every collection's documents in order.
func collectDocs(db *DB) map[string][]Document {
	out := map[string][]Document{}
	for _, name := range db.CollectionNames() {
		var docs []Document
		db.Collection(name).ForEach(func(d Document) bool {
			docs = append(docs, d)
			return true
		})
		out[name] = docs
	}
	return out
}
