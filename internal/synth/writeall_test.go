package synth

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestWriteAllParallelMatchesSequential: parallel emission must produce the
// same file set with the same bytes, in the same returned order, as the
// sequential WriteAll — with one writer as with several.
func TestWriteAllParallelMatchesSequential(t *testing.T) {
	cfg := DefaultConfig(11, 80)
	cfg.Snapshots = Calendar(2008, 3)

	seqPaths, err := WriteAll(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			parPaths, err := WriteAllParallel(cfg, t.TempDir(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(seqPaths) != len(parPaths) {
				t.Fatalf("path counts differ: %d vs %d", len(seqPaths), len(parPaths))
			}
			for i := range seqPaths {
				if filepath.Base(seqPaths[i]) != filepath.Base(parPaths[i]) {
					t.Fatalf("path %d: %s vs %s", i, seqPaths[i], parPaths[i])
				}
				a, err := os.ReadFile(seqPaths[i])
				if err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(parPaths[i])
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Errorf("%s differs between sequential and parallel emission", filepath.Base(seqPaths[i]))
				}
			}
		})
	}
}
