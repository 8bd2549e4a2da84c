package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/testkit"
)

// TestFlagValidation: bad invocations end in one line on stderr and a
// non-zero exit before any work — the dataset path does not exist, so a
// run that got as far as opening it would report that instead.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-in", "missing.tsv", "-steps", "-3"}, 1, "-steps -3"},
		{[]string{"-in", "missing.tsv", "-steps", "-1"}, 1, "-steps -1"},
		{[]string{"-in", "missing.tsv", "-steps", "0"}, 1, "-steps 0"},
		{[]string{"-steps", "10"}, 1, "exactly one of -in"},
		{[]string{"-in", "missing.tsv", "-db", "missing"}, 1, "exactly one of -in"},
		{[]string{"-in", "missing.tsv", "-window", "1"}, 1, "-window 1"},
		{[]string{"-in", "missing.tsv", "-window", "0"}, 1, "-window 0"},
		{[]string{"-in", "missing.tsv", "-window", "-4"}, 1, "-window -4"},
		{[]string{"-in", "missing.tsv", "-stream"}, 2, "flag provided but not defined"},
		{[]string{"-in", "missing.tsv", "-workers", "2"}, 2, "flag provided but not defined: -workers"},
		{[]string{"-in", "missing.tsv", "-store-workers", "2"}, 2, "flag provided but not defined: -store-workers"},
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
}

// TestReportIndependentOfWorkers: the whole report — blocking summary,
// best-F1 lines and full curves — is byte-identical inline (GOMAXPROCS=1)
// and on four workers, for SNM alone and for the SNM+trigram union.
func TestReportIndependentOfWorkers(t *testing.T) {
	ds := testkit.Corpus{Seed: 61}.DedupDataset(t, 110, 4, 0, 150)
	path := filepath.Join(t.TempDir(), "labeled.tsv")
	if err := ds.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	report := func(block string, procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var stdout, stderr bytes.Buffer
		args := []string{"-in", path, "-block", block, "-passes", "3", "-steps", "40", "-curves"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	for _, block := range []string{"snm", "snm,trigram"} {
		one, four := report(block, 1), report(block, 4)
		if one != four {
			t.Errorf("-block %s: report differs between GOMAXPROCS 1 and 4:\n%s\nvs\n%s", block, one, four)
		}
		if !strings.Contains(one, "unique candidate pairs") || strings.Count(one, "best F1") != 3 {
			t.Errorf("-block %s: report lacks the blocking summary or a measure:\n%s", block, one)
		}
		if (block != "snm") != strings.Contains(one, "trigram banding") {
			t.Errorf("-block %s: trigram line misplaced:\n%s", block, one)
		}
	}
}
