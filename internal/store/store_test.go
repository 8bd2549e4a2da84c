package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/provenance"
	"repro/internal/testkit"
)

// counts is a counter.Sink that keeps every total.
type counts map[string]int64

func (c counts) AddN(name string, n int64) { c[name] += n }

// commitFiles imports the snapshot files into a fresh dataset, publishes it
// and commits it into dir at the given stride.
func commitFiles(t *testing.T, dir string, files []string, stride int) *provenance.Record {
	t.Helper()
	ds := core.NewDataset(core.RemoveTrimmed)
	for _, f := range files {
		if _, err := ds.ImportSnapshotFileParallelOpts(f, core.IngestOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	ds.Publish()
	rec, err := Commit(ds, dir, CommitOpts{Stride: stride, Meta: provenance.Meta{Source: "test"}})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestOpenCommitRoundTrip: a committed dataset opens with every cluster's
// fingerprint unchanged, and Open returns the record Commit stamped.
func TestOpenCommitRoundTrip(t *testing.T) {
	ds := testkit.Corpus{Seed: 7}.Dataset(t, 80, 3)
	dir := filepath.Join(t.TempDir(), "store")
	stamped, err := Commit(ds, dir, CommitOpts{Meta: provenance.Meta{Source: "test"}})
	if err != nil {
		t.Fatal(err)
	}
	loads := counts{}
	got, rec, err := Open(dir, OpenOpts{Observer: loads})
	if err != nil {
		t.Fatal(err)
	}
	if diff := core.BuildFingerprintIndex(ds).Diff(core.BuildFingerprintIndex(got)); len(diff) != 0 {
		t.Errorf("%d clusters differ after the round trip, first %s", len(diff), diff[0])
	}
	if rec.HeadHash() != stamped.HeadHash() || rec.Meta.Source != "test" {
		t.Errorf("Open returned head %s (source %q), Commit stamped %s", rec.HeadHash(), rec.Meta.Source, stamped.HeadHash())
	}
	if loads[docstore.CounterSegmentsRead] == 0 {
		t.Errorf("Open reported no segment reads to its observer: %v", loads)
	}
}

// TestCommitDeltaMatchesFull: continuing a store with a dirty-segment commit
// stamps the same root as a full commit of the same dataset, and reuses
// the segments the delta did not touch; reopening it through the cache of
// the first open reads, and so hashes, only the segments the commit wrote.
func TestCommitDeltaMatchesFull(t *testing.T) {
	files := testkit.Corpus{Seed: 3}.SnapshotFiles(t, 120, 4)
	// The update is a change-only feed: the header and three rows of the
	// last snapshot, so most segments stay untouched.
	raw, err := os.ReadFile(files[3])
	if err != nil {
		t.Fatal(err)
	}
	update := filepath.Join(t.TempDir(), filepath.Base(files[3]))
	if err := os.WriteFile(update, []byte(strings.Join(strings.SplitAfter(string(raw), "\n")[:4], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	const stride = 8
	meta := provenance.Meta{Source: "test"}
	roots := map[bool]*provenance.Record{}
	saves, reloads := counts{}, counts{}
	for _, withDelta := range []bool{false, true} {
		dir := t.TempDir()
		commitFiles(t, dir, files[:3], stride)
		cache := docstore.NewSegmentCache()
		ds, _, err := Open(dir, OpenOpts{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		opts := CommitOpts{Stride: stride, Meta: meta}
		if withDelta {
			opts.Observer = saves
			if opts.Delta, err = ds.ApplySnapshotDelta(update, core.DeltaOptions{Workers: 1, Index: core.BuildFingerprintIndex(ds)}); err != nil {
				t.Fatal(err)
			}
		} else if _, err := ds.ImportSnapshotFileParallelOpts(update, core.IngestOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		ds.Publish()
		if roots[withDelta], err = Commit(ds, dir, opts); err != nil {
			t.Fatal(err)
		}
		if withDelta {
			if _, _, err := Open(dir, OpenOpts{Cache: cache, Observer: reloads}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d, f := roots[true], roots[false]; d.Root() != f.Root() || d.HeadHash() != f.HeadHash() {
		t.Errorf("delta commit root %s head %s, full commit root %s head %s", d.Root(), d.HeadHash(), f.Root(), f.HeadHash())
	}
	if saves[docstore.CounterSegmentsReused] == 0 {
		t.Errorf("the delta commit rewrote every segment: %v", saves)
	}
	if reloads[docstore.CounterSegmentsRead] != saves[docstore.CounterSegmentsWritten] ||
		reloads[docstore.CounterSegmentsCached] != saves[docstore.CounterSegmentsReused] {
		t.Errorf("reopen read %d and took %d segments from the cache, the commit wrote %d and kept %d",
			reloads[docstore.CounterSegmentsRead], reloads[docstore.CounterSegmentsCached],
			saves[docstore.CounterSegmentsWritten], saves[docstore.CounterSegmentsReused])
	}
}

// TestOpenRefusesCutCommit pins what a commit cut between its docstore save
// and its record write leaves behind: manifests the old record does not
// vouch for, a store Open refuses naming a manifest. Only a commit point
// that covers the record too (ROADMAP item 3) makes such a store open.
func TestOpenRefusesCutCommit(t *testing.T) {
	files := testkit.Corpus{Seed: 5}.SnapshotFiles(t, 60, 2)
	dir := t.TempDir()
	commitFiles(t, dir, files[:1], 0)
	ds, _, err := Open(dir, OpenOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.ImportSnapshotFileParallelOpts(files[1], core.IngestOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	ds.Publish()
	if err := ds.ToDocDB().SaveParallelOpts(dir, docstore.SaveOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, OpenOpts{}); err == nil || errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), ".manifest.json disagrees with "+provenance.RecordFile) {
		t.Errorf("cut commit: Open error %v, want a refusal naming a manifest", err)
	}
}

// TestOpenRefusesDamage: one flipped byte in a segment, a manifest or the
// record makes Open fail naming that file, and a store saved without a
// record is refused rather than read as missing.
func TestOpenRefusesDamage(t *testing.T) {
	ds := testkit.Corpus{Seed: 7}.Dataset(t, 80, 3)
	clean := t.TempDir()
	if _, err := Commit(ds, clean, CommitOpts{}); err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"clusters.00.jsonl", docstore.ManifestFileName(core.ClustersCollection), provenance.RecordFile} {
		dir := t.TempDir()
		entries, err := os.ReadDir(clean)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(clean, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() == file {
				data[len(data)/2] ^= 0x01
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := Open(dir, OpenOpts{}); err == nil || !strings.Contains(err.Error(), file) {
			t.Errorf("flipped %s: Open error %v, want it to name the file", file, err)
		}
	}

	unstamped := t.TempDir()
	if err := ds.ToDocDB().SaveParallelOpts(unstamped, docstore.SaveOpts{}); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(unstamped, OpenOpts{})
	if err == nil || errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), provenance.RecordFile) {
		t.Errorf("unstamped store: Open error %v, want a refusal naming %s that is not fs.ErrNotExist", err, provenance.RecordFile)
	}
}

// TestOpenMissingOrEmpty: a directory that is not there, or holds nothing,
// holds no store — the one case a caller may start fresh from.
func TestOpenMissingOrEmpty(t *testing.T) {
	for _, dir := range []string{filepath.Join(t.TempDir(), "missing"), t.TempDir()} {
		if _, _, err := Open(dir, OpenOpts{}); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: Open error %v, want fs.ErrNotExist", dir, err)
		}
	}
}
