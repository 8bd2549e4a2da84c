package errstats_test

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/errstats"
	"repro/internal/testkit"
)

// External-package coverage of the adapter and render paths: a seeded
// register carrying every paper error type (the testkit corpus injects the
// full internal/corrupt palette) is profiled end to end, and the rendered
// outputs are parsed back and checked against the Table they came from —
// the text and CSV exports must be faithful projections of the counts, not
// approximations of them.

func analyzedCorpus(t *testing.T) *errstats.Table {
	t.Helper()
	d := testkit.Corpus{Seed: 23}.Dataset(t, 250, 4)
	in := errstats.FromDataset(d)
	if len(in.Records) == 0 || len(in.Clusters) == 0 {
		t.Fatal("adapter produced an empty input")
	}
	if in.AgeAttr != "age" {
		t.Fatalf("adapter age attribute = %q", in.AgeAttr)
	}
	if len(in.ConfusablePairs) != 3 {
		t.Fatalf("adapter restricted confusions to %d pairs, want the 3 name pairs", len(in.ConfusablePairs))
	}
	return errstats.Analyze(in)
}

func TestCorpusProfilesEveryErrorType(t *testing.T) {
	tbl := analyzedCorpus(t)
	if tbl.TotalRecords == 0 || tbl.TotalPairs == 0 {
		t.Fatalf("profile is empty: %d records, %d pairs", tbl.TotalRecords, tbl.TotalPairs)
	}
	for _, e := range errstats.SingletonTypes {
		if tbl.Singletons[e].Total == 0 {
			t.Errorf("singleton type %q never detected in the corrupted corpus", e)
		}
	}
	for _, e := range errstats.PairTypes {
		if tbl.PairBased[e].Total == 0 {
			t.Errorf("pair type %q never detected in the corrupted corpus", e)
		}
	}
}

func TestRenderTextRoundTripsMostCommon(t *testing.T) {
	tbl := analyzedCorpus(t)
	var buf bytes.Buffer
	errstats.RenderText(&buf, []errstats.Column{{Name: "corpus", Table: tbl}})
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")

	want := 1 + len(errstats.SingletonTypes) + len(errstats.PairTypes)
	if len(lines) != want {
		t.Fatalf("rendered %d lines, want %d", len(lines), want)
	}
	if !strings.Contains(lines[0], "corpus") {
		t.Fatalf("header row %q misses the column name", lines[0])
	}

	// Each body row is "<type> | <attr> <count> (<pct>%)" (or "-"); the
	// attribute and count must be the table's MostCommon of that type.
	types := append(append([]errstats.ErrType{}, errstats.SingletonTypes...), errstats.PairTypes...)
	for i, e := range types {
		row := lines[1+i]
		if !strings.HasPrefix(row, string(e)) {
			t.Fatalf("row %d = %q, want type %q", i, row, e)
		}
		var stat *errstats.Stat
		if i < len(errstats.SingletonTypes) {
			stat = tbl.Singletons[e]
		} else {
			stat = tbl.PairBased[e]
		}
		attr, n := stat.MostCommon()
		cell := strings.TrimSpace(strings.SplitN(row, "|", 2)[1])
		if n == 0 {
			if cell != "-" {
				t.Errorf("%s: cell %q, want empty marker", e, cell)
			}
			continue
		}
		if !strings.HasPrefix(cell, attr+" "+strconv.Itoa(n)+" (") {
			t.Errorf("%s: cell %q does not lead with %q and count %d", e, cell, attr, n)
		}
	}
}
