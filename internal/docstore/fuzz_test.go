package docstore

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Native fuzz targets for the persistence codecs: arbitrary bytes in a
// segment body and in the segmented manifest+segment pair must either
// load cleanly or fail with an error — never panic, never allocate
// proportionally to attacker-controlled numbers, and never read outside the
// store directory. make fuzz-smoke runs these (and the voter/simil targets)
// for a bounded time per target; testdata/fuzz holds the seed corpus,
// including regression seeds for crashes fuzzing has found.

// FuzzLoadSegment feeds arbitrary bytes to the segmented loader as the body
// of one committed segment. The harness derives the manifest from the fuzzed
// bytes — byte count, CRC and document count all match — so every input
// reaches the line decoder and Insert instead of stopping at the checksum.
// A successful load must be deterministic: loading the same store twice
// yields identical collections.
func FuzzLoadSegment(f *testing.F) {
	f.Add([]byte(`{"_id":"a","n":1}` + "\n" + `{"_id":"b","nested":{"x":[1,2]}}` + "\n"))
	f.Add([]byte(`{"_id":"a"}` + "\n" + `{"_id":"a"}` + "\n")) // duplicate id
	f.Add([]byte(`{"no_id":true}` + "\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"_id":"q","v":"` + strings.Repeat("A", 1<<10) + `"}` + "\n"))
	f.Add([]byte{0xff, 0xfe, '{', '}'})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := segmentStore(t, data)
		db1, err1 := LoadParallelOpts(dir, LoadOpts{})
		db2, err2 := LoadParallelOpts(dir, LoadOpts{})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("nondeterministic load: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if got, want := collectDocs(db1), collectDocs(db2); !reflect.DeepEqual(got, want) {
			t.Fatalf("nondeterministic load:\n got %v\nwant %v", got, want)
		}
	})
}

// segmentStore writes body as the one segment of collection "c" under a
// manifest that matches it — byte count, CRC32 and the document count the
// loader will find — and returns the store directory.
func segmentStore(tb testing.TB, body []byte) string {
	tb.Helper()
	docs := 0
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(bytes.TrimSpace(line)) > 0 {
			docs++
		}
	}
	man, err := json.Marshal(segmentManifest{
		Version: manifestVersion, Collection: "c", Docs: docs,
		Segments: []segmentInfo{{File: "c.00.jsonl", Docs: docs, Bytes: int64(len(body)), CRC32: crc32.ChecksumIEEE(body)}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	dir := tb.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "c.00.jsonl"), body, 0o644); err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "c"+manifestSuffix), man, 0o644); err != nil {
		tb.Fatal(err)
	}
	return dir
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
