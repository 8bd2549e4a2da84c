package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dedup"
	"repro/internal/docstore"
	"repro/internal/provenance"
	"repro/internal/testkit"
)

// TestFlagValidation drives nccustom over a freshly stamped store: usage
// errors exit 2 and a directory without a store exits 1 with one line on
// stderr, both printing and writing nothing; a good run exits 0 and the TSV
// it wrote reads back with the record count it printed.
func TestFlagValidation(t *testing.T) {
	ds := testkit.Corpus{Seed: 7}.Dataset(t, 80, 3)
	store := filepath.Join(t.TempDir(), "store")
	if _, err := provenance.Save(ds.ToDocDB(), store, docstore.SaveOpts{}, provenance.StampOpts{}); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing")

	for _, tc := range []struct {
		args []string
		code int
		want string // in stderr on a non-zero exit
	}{
		{[]string{"-db", store, "-shards", "4"}, 2, "flag provided but not defined: -shards"},
		{[]string{"-db", missing}, 1, "misses the dataset metadata"},
		{[]string{"-db", store, "-hlow", "0", "-hhigh", "1", "-top", "20"}, 0, ""},
	} {
		out := filepath.Join(t.TempDir(), "nc.tsv")
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
		got, err := dedup.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(": %d records, ", got.NumRecords()); got.NumRecords() == 0 || !strings.Contains(stdout.String(), want) {
			t.Errorf("%v: stdout %q, want it to report the %d records written", args, stdout.String(), got.NumRecords())
		}
	}
}
