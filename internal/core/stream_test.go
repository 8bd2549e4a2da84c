package core

import (
	"testing"

	"repro/internal/synth"
	"repro/internal/voter"
)

// TestImportSnapshotFileMatchesInMemory: the file import at its defaults
// (GOMAXPROCS workers, 256 KiB blocks) counts what the in-memory import of
// the same files counts.
func TestImportSnapshotFileMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	cfg := synth.DefaultConfig(17, 150)
	cfg.Snapshots = synth.Calendar(2008, 3)
	paths, err := synth.WriteAll(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}

	streamed := NewDataset(RemoveTrimmed)
	var streamedStats []ImportStats
	for _, p := range paths {
		st, err := streamed.ImportSnapshotFileParallelOpts(p, IngestOptions{})
		if err != nil {
			t.Fatal(err)
		}
		streamedStats = append(streamedStats, st)
	}

	loaded := NewDataset(RemoveTrimmed)
	var loadedStats []ImportStats
	for _, p := range paths {
		snap, err := voter.ReadSnapshotFile(p)
		if err != nil {
			t.Fatal(err)
		}
		loadedStats = append(loadedStats, loaded.ImportSnapshot(snap))
	}

	if streamed.NumRecords() != loaded.NumRecords() ||
		streamed.NumClusters() != loaded.NumClusters() ||
		streamed.NumPairs() != loaded.NumPairs() {
		t.Fatalf("streamed %d/%d/%d vs loaded %d/%d/%d",
			streamed.NumRecords(), streamed.NumClusters(), streamed.NumPairs(),
			loaded.NumRecords(), loaded.NumClusters(), loaded.NumPairs())
	}
	for i := range streamedStats {
		if streamedStats[i] != loadedStats[i] {
			t.Errorf("stats %d differ: %+v vs %+v", i, streamedStats[i], loadedStats[i])
		}
	}
}

func TestImportLifecycleGuards(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	imp := d.beginImport("2008-01-01")
	imp.close()
	assertPanics(t, "double close", func() { imp.close() })
	assertPanics(t, "add after close", func() { imp.add(voter.NewRecord()) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestImportSnapshotFileMissing(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	if _, err := d.ImportSnapshotFileParallelOpts("/does/not/exist.tsv", IngestOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := d.ApplySnapshotDelta("/does/not/exist.tsv", DeltaOptions{}); err == nil {
		t.Fatal("missing delta file accepted")
	}
}
