package main

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/provenance"
	"repro/internal/testkit"
)

// TestFlagValidation: bad invocations end in a message on stderr and a
// non-zero exit before anything is imported or written — usage errors exit
// 2, the rest exit 1 with one line.
func TestFlagValidation(t *testing.T) {
	empty := t.TempDir()
	db := filepath.Join(t.TempDir(), "store")
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-in", empty, "-db", db, "-mode", "fuzzy"}, 2, `unknown removal mode "fuzzy"`},
		{[]string{"-in", empty, "-db", db, "-shards", "4"}, 2, "flag provided but not defined"},
		{[]string{"-in", empty, "-db", db, "-workers", "2"}, 2, "flag provided but not defined: -workers"},
		{[]string{"-in", empty, "-db", db, "-store-workers", "2"}, 2, "flag provided but not defined: -store-workers"},
		{[]string{"-in", empty, "-db", db, "-delta"}, 1, "-delta requires -stride > 0"},
		{[]string{"-in", empty, "-db", db}, 1, "no VR_Snapshot_*.tsv files in " + empty},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before rejecting the flags", tc.args, stdout.String())
		}
		msg := stderr.String()
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%v: stderr %q, want it to name %q", tc.args, msg, tc.want)
		}
		if tc.code == 1 && strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr is not one line: %q", tc.args, msg)
		}
	}
	if _, err := os.Stat(db); !os.IsNotExist(err) {
		t.Errorf("a rejected run created the store: %v", err)
	}
}

// TestStoreIndependentOfWorkers: importing the same snapshots inline
// (GOMAXPROCS=1) and on four workers writes byte-identical store files with
// the same provenance root, and both runs report the ingest counters.
func TestStoreIndependentOfWorkers(t *testing.T) {
	in := filepath.Dir(testkit.Corpus{Seed: 9}.SnapshotFiles(t, 120, 3)[0])
	importStore := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		db := filepath.Join(t.TempDir(), "store")
		var stdout, stderr bytes.Buffer
		args := []string{"-in", in, "-db", db, "-scores"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, "pipeline counters:") || !strings.Contains(out, "ingest_rows_decoded") {
			t.Errorf("GOMAXPROCS %d: no ingest counters in the output:\n%s", procs, out)
		}
		return db
	}
	one, four := importStore(1), importStore(4)

	names, err := os.ReadDir(one)
	if err != nil {
		t.Fatal(err)
	}
	if other, err := os.ReadDir(four); err != nil || len(other) != len(names) {
		t.Fatalf("store file counts differ: %d vs %d (%v)", len(names), len(other), err)
	}
	for _, e := range names {
		a, errA := os.ReadFile(filepath.Join(one, e.Name()))
		b, errB := os.ReadFile(filepath.Join(four, e.Name()))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Errorf("%s differs between GOMAXPROCS 1 and 4 (%v, %v)", e.Name(), errA, errB)
		}
	}
	recOne, _, err := provenance.LoadRecord(nil, one)
	if err != nil {
		t.Fatal(err)
	}
	recFour, _, err := provenance.LoadRecord(nil, four)
	if err != nil {
		t.Fatal(err)
	}
	if recOne.Root() != recFour.Root() {
		t.Errorf("provenance roots differ: %s vs %s", recOne.Root(), recFour.Root())
	}
}

// TestDamagedStoreIsRefused: continuing a store that is there but does not
// verify exits 1 with one line naming the failure and leaves every file of
// the store as it was — it is never taken for a fresh directory and
// overwritten.
func TestDamagedStoreIsRefused(t *testing.T) {
	files := testkit.Corpus{Seed: 9}.SnapshotFiles(t, 120, 3)
	first, last := t.TempDir(), t.TempDir()
	for i, f := range files {
		dst := first
		if i == len(files)-1 {
			dst = last
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name   string
		damage func(db string) error
		want   string
	}{
		{"dataset collection deleted", func(db string) error {
			matches, err := filepath.Glob(filepath.Join(db, "dataset.*"))
			for _, m := range matches {
				err = errors.Join(err, os.Remove(m))
			}
			return err
		}, "dataset"},
		{"segment byte flipped", func(db string) error {
			seg := filepath.Join(db, "clusters.00.jsonl")
			data, err := os.ReadFile(seg)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 0x01
			return os.WriteFile(seg, data, 0o644)
		}, "clusters.00.jsonl"},
		{"record removed", func(db string) error { return os.Remove(filepath.Join(db, provenance.RecordFile)) }, provenance.RecordFile},
	} {
		db := filepath.Join(t.TempDir(), "store")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-in", first, "-db", db}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: first import exit %d: %s", tc.name, code, stderr.String())
		}
		if err := tc.damage(db); err != nil {
			t.Fatal(err)
		}
		before := readStore(t, db)
		stdout.Reset()
		stderr.Reset()
		code := run([]string{"-in", last, "-db", db}, &stdout, &stderr)
		if msg := stderr.String(); code != 1 || stdout.Len() != 0 || !strings.Contains(msg, tc.want) || strings.Count(msg, "\n") != 1 {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 and one line naming %q", tc.name, code, stdout.String(), msg, tc.want)
		}
		if after := readStore(t, db); !maps.EqualFunc(before, after, bytes.Equal) {
			t.Errorf("%s: the refused run changed the store's files", tc.name)
		}
	}
}

// readStore returns every file of a store directory by name.
func readStore(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}
