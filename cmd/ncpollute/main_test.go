package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/docstore"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/testkit"
)

// TestFlagValidation drives ncpollute over a freshly stamped store: usage
// errors exit 2 and a directory without a store exits 1 with one line on
// stderr, both printing and writing nothing; a good run exits 0, and the
// store it wrote verifies against its own record, names the input's corpus
// root as its source, and loads with the counts it printed.
func TestFlagValidation(t *testing.T) {
	ds := testkit.Corpus{Seed: 7}.Dataset(t, 80, 3)
	input := filepath.Join(t.TempDir(), "store")
	src, err := provenance.Save(ds.ToDocDB(), input, docstore.SaveOpts{}, provenance.StampOpts{})
	if err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing")

	for _, tc := range []struct {
		args []string
		code int
		want string // in stderr on a non-zero exit
	}{
		{[]string{"-db", input, "-shards", "4"}, 2, "flag provided but not defined: -shards"},
		{[]string{"-db", missing}, 1, "misses the dataset metadata"},
		{[]string{"-db", input, "-fraction", "0.5", "-extra", "0.5"}, 0, ""},
	} {
		out := filepath.Join(t.TempDir(), "polluted")
		args := append(tc.args, "-out", out)
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", args, code, tc.code, stderr.String())
			continue
		}
		if code != 0 {
			if stdout.Len() != 0 {
				t.Errorf("%v: printed %q before failing", args, stdout.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, tc.want) || code == 1 && strings.Count(msg, "\n") != 1 {
				t.Errorf("%v: stderr %q, want one line naming %q", args, msg, tc.want)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("%v: a failed run wrote %s: %v", args, out, err)
			}
			continue
		}
		got, rec, err := store.Open(out, store.OpenOpts{})
		if err != nil {
			t.Fatalf("%v: the output does not verify: %v", args, err)
		}
		if rec.Meta.SourceRoot != src.Root() || rec.Meta.Source != "ncpollute" {
			t.Errorf("%v: output record names source %q root %q, want ncpollute and %s", args, rec.Meta.Source, rec.Meta.SourceRoot, src.Root())
		}
		want := fmt.Sprintf("wrote %d clusters / %d records -> %s\n", got.NumClusters(), got.NumRecords(), out)
		if got.NumRecords() <= ds.NumRecords() || !strings.Contains(stdout.String(), want) {
			t.Errorf("%v: stdout %q, want %q with more than the input's %d records", args, stdout.String(), want, ds.NumRecords())
		}
	}
}
