package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/docstore"
	"repro/internal/provenance"
	"repro/internal/testkit"
)

// TestFlagValidation drives ncstats over a freshly stamped store and a
// directory in the flat layout earlier releases wrote, which carries no
// provenance record and is refused naming it: usage errors exit 2, failures
// exit 1 with one line on stderr and nothing on stdout, and the report and
// -verify exit 0.
func TestFlagValidation(t *testing.T) {
	ds := testkit.Corpus{Seed: 7}.Dataset(t, 80, 3)
	store := filepath.Join(t.TempDir(), "store")
	if _, err := provenance.Save(ds.ToDocDB(), store, docstore.SaveOpts{}, provenance.StampOpts{}); err != nil {
		t.Fatal(err)
	}
	flatDir := t.TempDir()
	flat := filepath.Join(flatDir, "clusters.jsonl")
	if err := os.WriteFile(flat, []byte(`{"_id":"a"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		args []string
		code int
		want string // in stdout on exit 0, in stderr otherwise
	}{
		{[]string{"-db", store, "-shards", "4"}, 2, "flag provided but not defined: -shards"},
		{[]string{"-db", store, "-verify", "-verify-workers", "2"}, 2, "flag provided but not defined: -verify-workers"},
		{[]string{"-db", flatDir}, 1, filepath.Join(flatDir, provenance.RecordFile)},
		{[]string{"-db", store, "-version", "99"}, 1, "version 99 not published"},
		{[]string{"-db", store, "-version", "-1"}, 1, "version -1 not published"},
		{[]string{"-db", store}, 0, "per-year import history"},
		{[]string{"-db", store, "-verify"}, 0, "provenance OK"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			continue
		}
		got := stdout.String()
		if code != 0 {
			got = stderr.String()
			if stdout.Len() != 0 {
				t.Errorf("%v: printed %q before failing", tc.args, stdout.String())
			}
		}
		if !strings.Contains(got, tc.want) {
			t.Errorf("%v: output %q, want it to name %q", tc.args, got, tc.want)
		}
		if code == 1 && strings.Count(got, "\n") != 1 {
			t.Errorf("%v: stderr is not one line: %q", tc.args, got)
		}
	}
}
