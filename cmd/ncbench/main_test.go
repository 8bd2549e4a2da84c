package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagValidation: an invocation ncbench cannot serve ends before the
// header is printed, with the exit code and the words that name the cause —
// a misspelt or removed experiment used to print the header, run nothing and
// exit 0.
func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-exp", "tabel1"}, 2, `unknown experiment "tabel1" in -exp (want all or any of table1,`},
		{[]string{"-exp", "table1,docstore"}, 2, `unknown experiment "docstore"`},
		{[]string{"-exp", ""}, 2, `unknown experiment ""`},
		{[]string{"-scale", "huge"}, 2, `unknown -scale "huge" (want tiny|small|medium|large)`},
		{[]string{"-matching-json", ""}, 2, "flag provided but not defined: -matching-json"},
		{[]string{"-blocking-json", ""}, 2, "flag provided but not defined: -blocking-json"},
		{[]string{"-docstore-json", ""}, 2, "flag provided but not defined: -docstore-json"},
		{[]string{"-delta-json", ""}, 2, "flag provided but not defined: -delta-json"},
		{[]string{"-delta-workers", "2"}, 2, "flag provided but not defined: -delta-workers"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before rejecting the invocation", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
	}
}

// TestRunFigure3: a served experiment prints its figure and exits 0; a
// markdown report that cannot be written is one line on stderr and exit 1.
func TestRunFigure3(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "figure3", "-scale", "tiny"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Figure 3 examples") {
		t.Errorf("stdout lacks the figure:\n%s", stdout.String())
	}

	stderr.Reset()
	unwritable := filepath.Join(t.TempDir(), "missing", "report.md")
	if code := run([]string{"-exp", "figure3", "-scale", "tiny", "-md", unwritable}, &stdout, &stderr); code != 1 {
		t.Errorf("-md %s: exit %d, want 1", unwritable, code)
	}
	if msg := stderr.String(); !strings.Contains(msg, unwritable) || strings.Count(msg, "\n") != 1 {
		t.Errorf("-md %s: stderr %q, want one line naming the path", unwritable, msg)
	}
}

// TestUsageListsFiveFlags: -h is the whole option surface.
func TestUsageListsFiveFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	if n := strings.Count(stderr.String(), "\n  -"); n != 5 {
		t.Errorf("-h lists %d flags, want 5:\n%s", n, stderr.String())
	}
}
