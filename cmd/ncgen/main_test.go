package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/provenance"
)

// TestFlagValidation: an unknown flag is a usage error — exit 2, the reason
// on stderr, nothing written.
func TestFlagValidation(t *testing.T) {
	out := filepath.Join(t.TempDir(), "snaps")
	for _, flag := range []string{"-shards", "-workers"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-out", out, flag, "4"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", flag, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: printed %q before rejecting the flags", flag, stdout.String())
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined: "+flag) {
			t.Errorf("stderr %q does not name the unknown flag %s", stderr.String(), flag)
		}
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected run created the output directory: %v", err)
	}
}

// TestFilesIndependentOfWorkers pins the promise that the writer count does
// not matter: one writer (GOMAXPROCS=1) and four write byte-identical
// snapshot files and generator descriptors.
func TestFilesIndependentOfWorkers(t *testing.T) {
	generate := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := filepath.Join(t.TempDir(), "snaps")
		var stdout, stderr bytes.Buffer
		args := []string{"-out", out, "-voters", "150", "-years", "3", "-seed", "4"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		if !strings.HasPrefix(stdout.String(), "wrote ") {
			t.Errorf("GOMAXPROCS %d: stdout %q", procs, stdout.String())
		}
		return out
	}
	one, four := generate(1), generate(4)

	names, err := os.ReadDir(one)
	if err != nil {
		t.Fatal(err)
	}
	if other, err := os.ReadDir(four); err != nil || len(other) != len(names) {
		t.Fatalf("file counts differ: %d vs %d (%v)", len(names), len(other), err)
	}
	tsvs, descriptor := 0, false
	for _, e := range names {
		switch name := e.Name(); {
		case strings.HasSuffix(name, ".tsv"):
			tsvs++
		case name == provenance.GeneratorFile:
			descriptor = true
		}
		a, errA := os.ReadFile(filepath.Join(one, e.Name()))
		b, errB := os.ReadFile(filepath.Join(four, e.Name()))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Errorf("%s differs between GOMAXPROCS 1 and 4 (%v, %v)", e.Name(), errA, errB)
		}
	}
	if tsvs < 2 || !descriptor {
		t.Errorf("wrote %d snapshot files, generator.json %v; want several and the descriptor", tsvs, descriptor)
	}
}
