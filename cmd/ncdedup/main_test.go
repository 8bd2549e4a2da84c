package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strconv"
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
		{[]string{"-in", "missing.tsv", "-block", "snm"}, 2, "flag provided but not defined: -block"},
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
// and on four workers, for entropy passes and for ParsePasses key specs.
func TestReportIndependentOfWorkers(t *testing.T) {
	path := writeDataset(t)
	report := func(passes string, procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var stdout, stderr bytes.Buffer
		args := []string{"-in", path, "-passes", passes, "-steps", "40", "-curves"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	for _, passes := range []string{"3", "last_name+zip_code,soundex(first_name),prefix(last_name,4)"} {
		one, four := report(passes, 1), report(passes, 4)
		if one != four {
			t.Errorf("-passes %s: report differs between GOMAXPROCS 1 and 4:\n%s\nvs\n%s", passes, one, four)
		}
		if !strings.Contains(one, "unique candidate pairs") || strings.Count(one, "best F1") != 3 {
			t.Errorf("-passes %s: report lacks the blocking summary or a measure:\n%s", passes, one)
		}
		if n := strings.Count(one, "blocking: snm pass "); n != 3 {
			t.Errorf("-passes %s: %d pass lines, want 3:\n%s", passes, n, one)
		}
	}
}

// TestVerboseStagesAddUp: -v reports the blocking producer's busy time
// beside its lifetime, and the sequential scoring stages sum to no more
// than the printed wall time — the blocking lifetime, which overlaps
// scoring, is not added to them.
func TestVerboseStagesAddUp(t *testing.T) {
	path := writeDataset(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-in", path, "-passes", "3", "-v"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	var wall, busy, life, sum float64
	seen := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "stage timings (wall "):
			wall = seconds(t, strings.TrimSuffix(strings.TrimPrefix(line, "stage timings (wall "), "):"))
		case len(f) >= 5 && f[0] == "blocking" && f[2] == "busy":
			busy, life = seconds(t, f[1]), seconds(t, f[4])
			seen[f[0]] = true
		case len(f) == 2 && (f[0] == "preprocessing" || f[0] == "scoring" || f[0] == "merge"):
			sum += seconds(t, f[1])
			seen[f[0]] = true
		}
	}
	if len(seen) != 4 || wall <= 0 {
		t.Fatalf("-v output lacks the wall time or a stage:\n%s", out)
	}
	if busy < 0 || busy > life {
		t.Errorf("blocking busy %.3fs, lifetime %.3fs: want 0 <= busy <= lifetime\n%s", busy, life, out)
	}
	if sum > wall {
		t.Errorf("preprocessing + scoring + merge = %.3fs exceeds the wall time %.3fs\n%s", sum, wall, out)
	}
}

// writeDataset writes a small labeled NC1 customization and returns its path.
func writeDataset(t *testing.T) string {
	t.Helper()
	ds := testkit.Corpus{Seed: 61}.DedupDataset(t, 110, 4, 0, 150)
	path := filepath.Join(t.TempDir(), "labeled.tsv")
	if err := ds.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// seconds parses a "1.234s" duration as printed by -v.
func seconds(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "s"), 64)
	if err != nil {
		t.Fatalf("bad duration %q: %v", s, err)
	}
	return v
}
