package plaus

import (
	"testing"

	"repro/internal/core"
	"repro/internal/voter"
)

// mk builds a record with name, sex, age/date and birthplace.
func mk(first, middle, last, sex, age, date, birth string) voter.Record {
	r := voter.NewRecord()
	r.SetName("ncid", "X")
	r.SetName("first_name", first)
	r.SetName("midl_name", middle)
	r.SetName("last_name", last)
	r.SetName("sex_code", sex)
	r.SetName("age", age)
	r.SetName("snapshot_dt", date)
	r.SetName("birth_place", birth)
	return r
}

// Records mirroring the paper's Figure 3.
var (
	r1 = mk("DEBRA", "OEHRIE", "WILLIAMS", "F", "45", "2008-01-01", "NC")
	r2 = mk("DEBRA", "OEHRLE", "WILLIAMS", "F", "47", "2010-01-01", "NC")
	r3 = mk("DEBRA", "ANN", "OEHRLE", "F", "49", "2012-01-01", "NC")
	r4 = mk("MARY", "ELIZABETH", "FIELDS", "F", "61", "2012-01-01", "NC")
	r5 = mk("JOSHUA", "ELIZABETH", "BETHEA", "M", "93", "2012-01-01", "SC")
)

func TestIdenticalRecordsScoreOne(t *testing.T) {
	if got := PairScore(r1, r1); got != 1 {
		t.Errorf("PairScore(r, r) = %v", got)
	}
}

func TestSymmetry(t *testing.T) {
	pairs := [][2]voter.Record{{r1, r2}, {r2, r3}, {r4, r5}, {r1, r5}}
	for _, p := range pairs {
		if PairScore(p[0], p[1]) != PairScore(p[1], p[0]) {
			t.Errorf("PairScore asymmetric for %v / %v", p[0], p[1])
		}
	}
}

func TestTypoInMiddleNameStaysPlausible(t *testing.T) {
	// OEHRIE vs OEHRLE: one typo; everything else agrees.
	got := PairScore(r1, r2)
	if got < 0.9 {
		t.Errorf("typo pair score = %v, want >= 0.9", got)
	}
}

func TestNameConfusionIsForgiven(t *testing.T) {
	// r3 has the last name in the middle slot (word confusion between
	// attributes) plus a new middle name; plausibility should stay clearly
	// above the unsound range (paper: cluster DB175272 scores 0.81).
	got := PairScore(r2, r3)
	if got < 0.6 || got > 0.95 {
		t.Errorf("confused-names pair score = %v, want in [0.6, 0.95]", got)
	}
}

func TestObviousNonDuplicateScoresLow(t *testing.T) {
	// r4 vs r5: different names, different sex, 32 years apart (paper:
	// cluster DR19657 scores 0.33).
	got := PairScore(r4, r5)
	if got > 0.5 {
		t.Errorf("non-duplicate pair score = %v, want <= 0.5", got)
	}
	if got < 0.1 {
		t.Errorf("non-duplicate pair score = %v, implausibly low (shared middle name and tolerant components)", got)
	}
}

func TestSexSimilarity(t *testing.T) {
	cases := []struct {
		a, b string
		want float64
	}{
		{"F", "F", 1}, {"M", "M", 1}, {"F", "M", 0},
		{"U", "M", 1}, {"F", "U", 1}, {"", "M", 1}, {"", "", 1},
	}
	for _, c := range cases {
		a := mk("X", "", "Y", c.a, "", "", "")
		b := mk("X", "", "Y", c.b, "", "", "")
		if got := sexSimilarity(a, b); got != c.want {
			t.Errorf("sexSimilarity(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestYearOfBirthSimilarity(t *testing.T) {
	rec := func(age, date string) voter.Record { return mk("A", "", "B", "F", age, date, "") }
	cases := []struct {
		a, b voter.Record
		want float64
	}{
		// Same YoB.
		{rec("45", "2008-01-01"), rec("45", "2008-01-01"), 1},
		// Off by one (birthday not yet reached): tolerated.
		{rec("45", "2008-01-01"), rec("44", "2008-01-01"), 1},
		// Off by two: 1 - 1/10.
		{rec("45", "2008-01-01"), rec("43", "2008-01-01"), 0.9},
		// Off by 11+: zero.
		{rec("45", "2008-01-01"), rec("30", "2008-01-01"), 0},
		// Missing age: no contradiction.
		{rec("", "2008-01-01"), rec("45", "2008-01-01"), 1},
	}
	for i, c := range cases {
		if got := yearOfBirthSimilarity(c.a, c.b); got != c.want {
			t.Errorf("case %d: YoB sim = %v, want %v", i, got, c.want)
		}
	}
	// Age aging across snapshots keeps the same YoB.
	a := rec("45", "2008-01-01")
	b := rec("49", "2012-01-01")
	if got := yearOfBirthSimilarity(a, b); got != 1 {
		t.Errorf("aging across snapshots = %v, want 1", got)
	}
}

func TestMissingAndAbbreviatedNamesForgiven(t *testing.T) {
	full := mk("DEBRA", "ANN", "WILLIAMS", "F", "45", "2008-01-01", "NC")
	abbr := mk("DEBRA", "A.", "WILLIAMS", "F", "45", "2008-01-01", "NC")
	missing := mk("DEBRA", "", "WILLIAMS", "F", "45", "2008-01-01", "")
	if got := PairScore(full, abbr); got != 1 {
		t.Errorf("abbreviation pair = %v, want 1", got)
	}
	if got := PairScore(full, missing); got != 1 {
		t.Errorf("missing-values pair = %v, want 1", got)
	}
}

func TestUpdateAndClusterPlausibility(t *testing.T) {
	d := core.NewDataset(core.RemoveTrimmed)
	s := voter.Snapshot{Date: "2008-01-01"}
	sound1 := r1.Clone()
	sound1.SetName("ncid", "OK1")
	sound2 := r2.Clone()
	sound2.SetName("ncid", "OK1")
	bad1 := r4.Clone()
	bad1.SetName("ncid", "BAD1")
	bad2 := r5.Clone()
	bad2.SetName("ncid", "BAD1")
	s.Records = []voter.Record{sound1, sound2, bad1, bad2}
	d.ImportSnapshot(s)
	Update(d)
	d.Publish()

	scores := ClusterPlausibility(d)
	if len(scores) != 2 {
		t.Fatalf("cluster scores = %v", scores)
	}
	if scores[0] < 0.9 {
		t.Errorf("sound cluster plausibility = %v", scores[0])
	}
	if scores[1] > 0.5 {
		t.Errorf("unsound cluster plausibility = %v", scores[1])
	}
}

func BenchmarkPairScore(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PairScore(r1, r3)
	}
}
