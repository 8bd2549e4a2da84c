package docstore

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Failure injection for the persistence layer: corrupted files, duplicate
// ids, permission problems. The store must fail loudly, never half-load.

// TestLoadRejectsHostileSegment: a committed segment whose manifest matches
// its bytes, CRC and line count still fails the load when a line is not a
// document or breaks the collection's _id rules — the decoder or Insert
// rejects it, not the checksum.
func TestLoadRejectsHostileSegment(t *testing.T) {
	for _, tc := range []struct {
		name, body, want string
	}{
		{"corrupt-json", `{"_id":"a"}` + "\nnot json at all\n", "c.00.jsonl line 2"},
		{"duplicate-ids", `{"_id":"a"}` + "\n" + `{"_id":"a"}` + "\n", `duplicate _id "a"`},
		{"missing-id", `{"x":1}` + "\n", "misses a string _id"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := segmentStore(t, []byte(tc.body))
			if _, err := LoadParallelOpts(dir, LoadOpts{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

func TestLoadMissingDirectory(t *testing.T) {
	db, err := LoadParallelOpts(filepath.Join(t.TempDir(), "nope"), LoadOpts{Workers: 1})
	// A missing directory holds no collections, which is not an error: an
	// empty database is the correct result.
	if err != nil {
		t.Fatalf("missing dir: %v", err)
	}
	if len(db.CollectionNames()) != 0 {
		t.Error("phantom collections")
	}
}

func TestSaveFailureLeavesOldFileIntact(t *testing.T) {
	dir := t.TempDir()
	db := NewDB()
	db.Collection("x").Insert(D("_id", "a"))
	if err := db.SaveParallelOpts(dir, SaveOpts{}); err != nil {
		t.Fatal(err)
	}
	// Make the directory read-only so the temp file cannot be created.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	db.Collection("x").Insert(D("_id", "b"))
	if err := db.SaveParallelOpts(dir, SaveOpts{}); err == nil {
		t.Skip("environment allows writing into read-only dirs (running as root)")
	}
	if err := os.Chmod(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadParallelOpts(dir, LoadOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Collection("x").Len() != 1 {
		t.Errorf("failed save corrupted the previous state: %d docs", loaded.Collection("x").Len())
	}
}

// Crash-safety of segmented saves: a save that dies between steps must
// leave a directory that either loads the previous complete state or fails
// loudly — never a torn mix of generations.

// segmentedDir saves a small DB in segmented form and returns the dir.
func segmentedDir(t *testing.T, docs, segments int) (string, *DB) {
	t.Helper()
	db := NewDB()
	c := db.Collection("x")
	for i := 0; i < docs; i++ {
		if err := c.Insert(D("_id", fmt.Sprintf("d%04d", i), "n", i)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := db.SaveParallelOpts(dir, SaveOpts{Segments: segments}); err != nil {
		t.Fatal(err)
	}
	return dir, db
}

func TestLoadRejectsTruncatedSegment(t *testing.T) {
	dir, _ := segmentedDir(t, 100, 4)
	path := filepath.Join(dir, "x.01.jsonl")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadParallelOpts(dir, LoadOpts{}); err == nil {
		t.Fatal("truncated segment loaded silently")
	}
}

func TestLoadRejectsCorruptedSegment(t *testing.T) {
	// Same length, different bytes: only the CRC catches it.
	dir, _ := segmentedDir(t, 100, 4)
	path := filepath.Join(dir, "x.02.jsonl")
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body[len(body)/2] ^= 0x20
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadParallelOpts(dir, LoadOpts{}); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("corrupted segment: got %v, want CRC mismatch", err)
	}
}

func TestLoadRejectsMissingSegment(t *testing.T) {
	dir, _ := segmentedDir(t, 100, 4)
	if err := os.Remove(filepath.Join(dir, "x.03.jsonl")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadParallelOpts(dir, LoadOpts{}); err == nil {
		t.Fatal("missing segment loaded silently")
	}
}

func TestLoadRejectsMixedGenerationSegment(t *testing.T) {
	// Simulate a save that crashed mid-overwrite: segment 00 is from a
	// newer, different generation than the manifest.
	dir, db := segmentedDir(t, 100, 4)
	newer := NewDB()
	for _, d := range db.Collection("x").Docs() {
		d = maps.Clone(d)
		if d["_id"] == "d0000" {
			d["n"] = "changed"
		}
		if err := newer.Collection("x").Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	other := t.TempDir()
	if err := newer.SaveParallelOpts(other, SaveOpts{Segments: 4}); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(filepath.Join(other, "x.00.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "x.00.jsonl"), body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadParallelOpts(dir, LoadOpts{}); err == nil {
		t.Fatal("mixed-generation segments loaded silently")
	}
}

func TestLoadRejectsFlatLayout(t *testing.T) {
	// The single-file layout earlier releases wrote is no longer read. A flat
	// file alone must fail the load naming it — never load as an empty or a
	// missing collection — while a stale flat file next to a committed
	// manifest is ignored.
	dir := t.TempDir()
	flat := filepath.Join(dir, "clusters.jsonl")
	if err := os.WriteFile(flat, []byte(`{"_id":"a","n":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadParallelOpts(dir, LoadOpts{}); err == nil || !strings.Contains(err.Error(), flat) {
		t.Fatalf("flat layout: got %v, want an error naming %s", err, flat)
	}

	stale, _ := segmentedDir(t, 10, 1)
	if err := os.WriteFile(filepath.Join(stale, "x.jsonl"), []byte(`{"_id":"ghost"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadParallelOpts(stale, LoadOpts{})
	if err != nil {
		t.Fatalf("stale flat file next to a manifest: %v", err)
	}
	if loaded.Collection("x").Len() != 10 || loaded.Collection("x").Get("ghost") != nil {
		t.Error("the stale flat file leaked into the segmented load")
	}
}

func TestLoadRejectsOrphanSegmentsWithoutFlatFile(t *testing.T) {
	// Orphan segments with no manifest: there is no authoritative state to
	// fall back to, so the load must fail loudly rather than guess.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.00.jsonl"), []byte("{\"_id\":\"a\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadParallelOpts(dir, LoadOpts{}); err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Fatalf("orphan segments: got %v, want loud manifest error", err)
	}
}

func TestLoadRejectsUnsupportedManifestVersion(t *testing.T) {
	dir, _ := segmentedDir(t, 10, 1)
	manPath := filepath.Join(dir, "x"+manifestSuffix)
	body, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, []byte(strings.Replace(string(body), "\"version\": 1", "\"version\": 99", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadParallelOpts(dir, LoadOpts{}); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future manifest version: got %v, want version error", err)
	}
}

func TestLoadRejectsDocCountMismatch(t *testing.T) {
	// A manifest promising more documents than its segments hold means the
	// manifest and segments are from different generations.
	dir, _ := segmentedDir(t, 20, 2)
	manPath := filepath.Join(dir, "x"+manifestSuffix)
	body, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	patched := strings.Replace(string(body), "\"docs\": 20", "\"docs\": 21", 1)
	if patched == string(body) {
		t.Fatal("fixture drift: total doc count not found in manifest")
	}
	if err := os.WriteFile(manPath, []byte(patched), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadParallelOpts(dir, LoadOpts{}); err == nil {
		t.Fatal("doc-count mismatch loaded silently")
	}
}

func TestSaveUnencodableValueCleansUp(t *testing.T) {
	dir := t.TempDir()
	db := NewDB()
	// A channel cannot be JSON-encoded.
	db.Collection("x").Insert(Document{"_id": "a", "bad": make(chan int)})
	if err := db.SaveParallelOpts(dir, SaveOpts{}); err == nil {
		t.Fatal("unencodable value accepted")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("failed save left %s behind", e.Name())
	}
}

// Manifest validation regressions, found by FuzzLoadSegmented (the crashing
// inputs are kept as seeds under testdata/fuzz/FuzzLoadSegmented): hostile
// numbers and file names in a manifest must be rejected before any
// allocation or file access is sized from them.

// writeManifest replaces the store's manifest with raw bytes.
func writeManifest(t *testing.T, dir, collection string, body string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, collection+manifestSuffix), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadRejectsNegativeManifestDocs(t *testing.T) {
	// Pre-fix, docs:-1 reached make([]Document, 0, -1) in readSegment and
	// panicked with "makeslice: cap out of range".
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "c.00.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	writeManifest(t, dir, "c",
		`{"version":1,"collection":"c","docs":-1,"segments":[{"file":"c.00.jsonl","docs":-1,"bytes":0,"crc32":0}]}`)
	if _, err := LoadParallelOpts(dir, LoadOpts{}); err == nil {
		t.Fatal("negative-docs manifest loaded silently")
	}
}

func TestLoadRejectsImpossibleManifestDocCount(t *testing.T) {
	// More documents than bytes/2+1 cannot exist; pre-fix the count sized an
	// unbounded decode allocation.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "c.00.jsonl"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	writeManifest(t, dir, "c",
		`{"version":1,"collection":"c","docs":1000000000000,"segments":[{"file":"c.00.jsonl","docs":1000000000000,"bytes":0,"crc32":0}]}`)
	if _, err := LoadParallelOpts(dir, LoadOpts{}); err == nil || !strings.Contains(err.Error(), "impossible") {
		t.Fatalf("impossible doc count: got %v, want validation error", err)
	}
}

func TestLoadRejectsEscapingSegmentFileName(t *testing.T) {
	// A manifest must not be able to point the loader at files outside its
	// own store directory.
	dir := t.TempDir()
	writeManifest(t, dir, "c",
		`{"version":1,"collection":"c","docs":0,"segments":[{"file":"../../../etc/passwd","docs":0,"bytes":0,"crc32":0}]}`)
	if _, err := LoadParallelOpts(dir, LoadOpts{}); err == nil || !strings.Contains(err.Error(), "store directory") {
		t.Fatalf("escaping file name: got %v, want validation error", err)
	}
}
