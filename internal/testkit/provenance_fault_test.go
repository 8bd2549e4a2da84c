package testkit_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/docstore"
	"repro/internal/provenance"
	"repro/internal/testkit"
)

// TestProvenanceFaultSweep is the hostile-disk half of the provenance
// battery: one bit is flipped in every file of a stamped store in turn — each
// segment, each manifest, and the record itself — and `ncstats -verify`'s
// engine must not merely fail but name exactly the corrupted file. The flips
// are injected on the read path (CorruptFS), so one store serves the whole
// sweep and the clean-disk control can re-run between flips.
func TestProvenanceFaultSweep(t *testing.T) {
	db := testkit.Corpus{Seed: 29}.DocDB(t, 150)
	dir := t.TempDir()
	meta := provenance.Meta{Source: "fault-sweep", Mode: "none"}
	rec, err := provenance.Save(db, dir, docstore.SaveOpts{Stride: 16}, provenance.StampOpts{Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := docstore.OSFS.ReadFile(filepath.Join(dir, provenance.RecordFile))
	if err != nil {
		t.Fatal(err)
	}

	// Control: the untampered store verifies through a pass-through CorruptFS
	// (no file matches an empty target).
	if _, err := provenance.VerifyDir(dir, provenance.VerifyOpts{FS: &testkit.CorruptFS{}}); err != nil {
		t.Fatalf("clean store failed verification: %v", err)
	}

	var files []string
	for _, c := range rec.Collections {
		files = append(files, docstore.ManifestFileName(c.Name))
		for _, l := range c.Leaves {
			files = append(files, l.File)
		}
	}
	if len(files) < 4 {
		t.Fatalf("sweep too small to mean anything: %v", files)
	}
	for _, name := range files {
		for _, workers := range []int{1, 4} {
			rep, err := provenance.VerifyDir(dir, provenance.VerifyOpts{
				Workers: workers,
				FS:      &testkit.CorruptFS{Target: name, BitOffset: 137},
			})
			if err == nil {
				t.Fatalf("%s (workers=%d): single flipped bit went undetected", name, workers)
			}
			if len(rep.Bad) != 1 || rep.Bad[0] != name {
				t.Fatalf("%s (workers=%d): verifier blamed %v", name, workers, rep.Bad)
			}
		}
	}

	// The record itself: flip a bit inside the head root's hex rendering,
	// chosen so the flipped character is still hex — the record then decodes
	// and validates, and only the self-check can catch it. The verifier must
	// blame the record file, never a (perfectly intact) segment.
	off := strings.Index(string(raw), rec.Root())
	if off < 0 {
		t.Fatal("record does not contain its own root rendering")
	}
	bit := -1
	for i, ch := range rec.Root() {
		if (ch >= '0' && ch <= '9') || (ch >= 'b' && ch <= 'e') {
			bit = (off + i) * 8 // low bit keeps the char in the hex alphabet
			break
		}
	}
	if bit < 0 {
		t.Fatal("root has no safely flippable hex character")
	}
	rep, err := provenance.VerifyDir(dir, provenance.VerifyOpts{
		FS: &testkit.CorruptFS{Target: provenance.RecordFile, BitOffset: bit},
	})
	if err == nil {
		t.Fatal("flipped record bit went undetected")
	}
	if len(rep.Bad) != 1 || rep.Bad[0] != provenance.RecordFile {
		t.Fatalf("record flip blamed %v, want only %s", rep.Bad, provenance.RecordFile)
	}
	if !strings.Contains(err.Error(), "tampered") {
		t.Errorf("record flip not reported as record tampering: %v", err)
	}
}
