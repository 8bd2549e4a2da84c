package voter

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestSchemaShape(t *testing.T) {
	if NumAttributes != 90 {
		t.Fatalf("NumAttributes = %d, want 90", NumAttributes)
	}
	counts := map[Group]int{}
	for _, a := range Attributes {
		counts[a.Group]++
	}
	if counts[GroupPerson] != 38 {
		t.Errorf("person attributes = %d, want 38", counts[GroupPerson])
	}
	if counts[GroupDistrict] != 38 {
		t.Errorf("district attributes = %d, want 38", counts[GroupDistrict])
	}
	if counts[GroupElection] != 6 {
		t.Errorf("election attributes = %d, want 6", counts[GroupElection])
	}
	if counts[GroupMeta] != 8 {
		t.Errorf("meta attributes = %d, want 8", counts[GroupMeta])
	}
}

func TestIndexRoundTrip(t *testing.T) {
	for i, a := range Attributes {
		got, ok := Index(a.Name)
		if !ok || got != i {
			t.Errorf("Index(%q) = %d, %v; want %d, true", a.Name, got, ok, i)
		}
	}
	if _, ok := Index("no_such_attr"); ok {
		t.Error("Index(no_such_attr) found")
	}
}

func TestGroupIndicesPartition(t *testing.T) {
	seen := map[int]bool{}
	for _, g := range []Group{GroupPerson, GroupDistrict, GroupElection, GroupMeta} {
		for _, i := range GroupIndices(g) {
			if seen[i] {
				t.Fatalf("column %d in two groups", i)
			}
			seen[i] = true
			if Attributes[i].Group != g {
				t.Fatalf("column %d group mismatch", i)
			}
		}
	}
	if len(seen) != NumAttributes {
		t.Fatalf("groups cover %d columns, want %d", len(seen), NumAttributes)
	}
}

func testRecord() Record {
	r := NewRecord()
	r.SetName("ncid", "AB123456")
	r.SetName("snapshot_dt", "2020-01-01")
	r.SetName("last_name", " WILLIAMS ")
	r.SetName("first_name", "DEBRA")
	r.SetName("midl_name", "OEHRLE")
	r.SetName("sex_code", "F")
	r.SetName("age", "45")
	r.SetName("birth_place", "NC")
	return r
}

func TestRecordAccessors(t *testing.T) {
	r := testRecord()
	if r.NCID() != "AB123456" {
		t.Errorf("NCID = %q", r.NCID())
	}
	if r.Age() != 45 {
		t.Errorf("Age = %d, want 45", r.Age())
	}
	if r.YearOfBirth() != 1975 {
		t.Errorf("YearOfBirth = %d, want 1975", r.YearOfBirth())
	}
	r.SetName("age", "")
	if r.Age() != -1 {
		t.Errorf("missing Age = %d, want -1", r.Age())
	}
	if r.YearOfBirth() != 0 {
		t.Errorf("YearOfBirth without age = %d, want 0", r.YearOfBirth())
	}
}

func TestTrimmed(t *testing.T) {
	r := testRecord()
	tr := r.Trimmed()
	if tr.GetName("last_name") != "WILLIAMS" {
		t.Errorf("trimmed last_name = %q", tr.GetName("last_name"))
	}
	// Original unchanged.
	if r.GetName("last_name") != " WILLIAMS " {
		t.Error("Trimmed mutated the original record")
	}
}

func TestIsMissing(t *testing.T) {
	missing := []string{"", "  ", "-", "N/A", "na", "null", "UNKNOWN", "unk"}
	for _, v := range missing {
		if !IsMissing(v) {
			t.Errorf("IsMissing(%q) = false", v)
		}
	}
	present := []string{"X", "0", "SMITH", "U"}
	for _, v := range present {
		if IsMissing(v) {
			t.Errorf("IsMissing(%q) = true", v)
		}
	}
}

func TestHashModesDistinguishRecords(t *testing.T) {
	a := testRecord()
	b := a.Clone()

	// Identical records hash equal under every mode.
	for _, m := range []HashMode{HashExact, HashTrimmed, HashPersonData} {
		if HashRecord(a, m) != HashRecord(b, m) {
			t.Errorf("identical records differ under mode %d", m)
		}
	}

	// Whitespace difference: detected only by HashExact.
	b.SetName("last_name", "WILLIAMS")
	if HashRecord(a, HashExact) == HashRecord(b, HashExact) {
		t.Error("HashExact should see whitespace differences")
	}
	if HashRecord(a, HashTrimmed) != HashRecord(b, HashTrimmed) {
		t.Error("HashTrimmed should ignore whitespace differences")
	}

	// Age and date differences: invisible to every mode (§4).
	c := a.Clone()
	c.SetName("age", "46")
	c.SetName("snapshot_dt", "2021-01-01")
	for _, m := range []HashMode{HashExact, HashTrimmed, HashPersonData} {
		if HashRecord(a, m) != HashRecord(c, m) {
			t.Errorf("mode %d should ignore age and snapshot date", m)
		}
	}

	// District difference: invisible to person mode only.
	d := a.Clone()
	d.SetName("cong_dist_desc", "1ST CONGRESSIONAL")
	if HashRecord(a, HashPersonData) != HashRecord(d, HashPersonData) {
		t.Error("HashPersonData should ignore district attributes")
	}
	if HashRecord(a, HashTrimmed) == HashRecord(d, HashTrimmed) {
		t.Error("HashTrimmed should see district differences")
	}

	// Person difference: visible to all modes.
	e := a.Clone()
	e.SetName("first_name", "DEBORAH")
	for _, m := range []HashMode{HashExact, HashTrimmed, HashPersonData} {
		if HashRecord(a, m) == HashRecord(e, m) {
			t.Errorf("mode %d should see first-name difference", m)
		}
	}
}

func TestHashColumns(t *testing.T) {
	exact := HashColumns(HashExact)
	if len(exact) != NumAttributes-7 {
		t.Errorf("HashExact columns = %d, want %d", len(exact), NumAttributes-7)
	}
	trimmed := HashColumns(HashTrimmed)
	if len(trimmed) != NumAttributes-7 {
		t.Errorf("HashTrimmed columns = %d, want %d", len(trimmed), NumAttributes-7)
	}
	person := HashColumns(HashPersonData)
	// Person group minus age and age_group.
	if len(person) != 36 {
		t.Errorf("HashPersonData columns = %d, want 36", len(person))
	}
	for _, i := range person {
		if Attributes[i].Group != GroupPerson {
			t.Errorf("person hash includes non-person column %s", Attributes[i].Name)
		}
	}
}

func TestHashSeparatorPreventsBoundaryCollisions(t *testing.T) {
	a := NewRecord()
	b := NewRecord()
	a.SetName("last_name", "AB")
	a.SetName("first_name", "C")
	b.SetName("last_name", "A")
	b.SetName("first_name", "BC")
	if HashRecord(a, HashPersonData) == HashRecord(b, HashPersonData) {
		t.Error("value concatenation collides across column boundary")
	}
}

func TestTSVRoundTrip(t *testing.T) {
	snap := Snapshot{Date: "2020-01-01"}
	for i := 0; i < 5; i++ {
		r := testRecord()
		r.SetName("voter_reg_num", string(rune('A'+i)))
		snap.Records = append(snap.Records, r)
	}
	var buf bytes.Buffer
	if err := WriteTSV(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != "2020-01-01" {
		t.Errorf("round-trip date = %q", got.Date)
	}
	if len(got.Records) != 5 {
		t.Fatalf("round-trip records = %d, want 5", len(got.Records))
	}
	for i := range got.Records {
		for j := range got.Records[i].Values {
			if got.Records[i].Values[j] != snap.Records[i].Values[j] {
				t.Fatalf("record %d column %d mismatch: %q vs %q",
					i, j, got.Records[i].Values[j], snap.Records[i].Values[j])
			}
		}
	}
}

func TestTSVRoundTripProperty(t *testing.T) {
	// Any tab/newline-free values survive a round trip, including leading
	// and trailing whitespace.
	f := func(vals [3]string) bool {
		r := NewRecord()
		ok := true
		clean := func(s string) string {
			return strings.Map(func(c rune) rune {
				if c == '\t' || c == '\n' || c == '\r' {
					return ' '
				}
				return c
			}, s)
		}
		r.SetName("last_name", clean(vals[0]))
		r.SetName("mail_addr1", clean(vals[1]))
		r.SetName("birth_place", clean(vals[2]))
		snap := Snapshot{Date: "", Records: []Record{r}}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, snap); err != nil {
			return false
		}
		got, err := ReadTSV(&buf)
		if err != nil || len(got.Records) != 1 {
			return false
		}
		for j := range r.Values {
			if got.Records[0].Values[j] != r.Values[j] {
				ok = false
			}
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestWriteTSVRejectsTabs(t *testing.T) {
	r := NewRecord()
	r.SetName("last_name", "BAD\tVALUE")
	err := WriteTSV(&bytes.Buffer{}, Snapshot{Records: []Record{r}})
	if err == nil {
		t.Fatal("WriteTSV accepted a tab inside a value")
	}
}

func TestReadTSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadTSV(strings.NewReader("a\tb\tc\n")); err == nil {
		t.Fatal("ReadTSV accepted a short header")
	}
	if _, err := ReadTSV(strings.NewReader("")); err == nil {
		t.Fatal("ReadTSV accepted empty input")
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := Snapshot{Date: "2020-11-03", Records: []Record{testRecordWithDate("2020-11-03")}}
	path, err := WriteSnapshotFile(dir, snap)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "VR_Snapshot_20201103.tsv" {
		t.Errorf("file name = %s", filepath.Base(path))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != "2020-11-03" || len(got.Records) != 1 {
		t.Errorf("round trip: date=%q records=%d", got.Date, len(got.Records))
	}
	files, err := ListSnapshotFiles(dir)
	if err != nil || len(files) != 1 {
		t.Errorf("ListSnapshotFiles = %v, %v", files, err)
	}
}

func testRecordWithDate(date string) Record {
	r := testRecord()
	r.SetName("snapshot_dt", date)
	return r
}

func TestSnapshotYear(t *testing.T) {
	s := Snapshot{Date: "2015-03-01"}
	if s.Year() != 2015 {
		t.Errorf("Year = %d", s.Year())
	}
	if (Snapshot{Date: "bogus"}).Year() != 0 {
		t.Error("malformed date should yield year 0")
	}
}

// TestRowScannerMatchesDecodeRow: scanning a line in place gives the columns
// DecodeRow splits, the hash HashRecord computes over them in every mode,
// and DecodeRow's error for a wrong column count.
func TestRowScannerMatchesDecodeRow(t *testing.T) {
	padded := testRecord()
	for i, v := range padded.Values {
		padded.Values[i] = "\u00a0" + v + "\v"
	}
	padded.SetName("midl_name", "\x85") // a lone byte of U+0085 is not space
	var sc RowScanner
	for _, line := range []string{
		strings.Join(testRecord().Values, "\t"),
		strings.Join(padded.Values, "\t"),
		strings.Repeat("\t", NumAttributes-1),
		strings.Repeat("\t", NumAttributes-2),
		strings.Repeat("x\t", NumAttributes),
		"",
	} {
		rec, wantErr := DecodeRow(line, 7)
		err := sc.Scan([]byte(line), 7)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%q: Scan error %v, DecodeRow error %v", line, err, wantErr)
		}
		if err != nil {
			continue
		}
		for i, v := range rec.Values {
			if got := string(sc.Column(i)); got != v {
				t.Errorf("%q column %d = %q, want %q", line, i, got, v)
			}
		}
		for _, m := range []HashMode{HashExact, HashTrimmed, HashPersonData} {
			if sc.Hash(m) != HashRecord(rec, m) {
				t.Errorf("%q mode %d: scanner hash differs from HashRecord", line, m)
			}
		}
	}
}

func BenchmarkHashRecord(b *testing.B) {
	r := testRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HashRecord(r, HashTrimmed)
	}
}

func TestRecordGetSetByIndex(t *testing.T) {
	r := NewRecord()
	r.Set(IdxLastName, "SMITH")
	if r.Get(IdxLastName) != "SMITH" {
		t.Errorf("Get/Set round trip failed")
	}
}

func TestRecordString(t *testing.T) {
	r := testRecord()
	s := r.String()
	for _, want := range []string{"AB123456", "WILLIAMS", "DEBRA", "OEHRLE"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q misses %q", s, want)
		}
	}
}

func TestGroupString(t *testing.T) {
	cases := map[Group]string{
		GroupPerson: "person", GroupDistrict: "district",
		GroupElection: "election", GroupMeta: "meta",
	}
	for g, want := range cases {
		if g.String() != want {
			t.Errorf("Group(%d).String() = %q, want %q", int(g), g.String(), want)
		}
	}
	if s := Group(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown group = %q", s)
	}
}

func TestMustIndexPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustIndex(unknown) did not panic")
		}
	}()
	MustIndex("no_such_attribute")
}

func TestNames(t *testing.T) {
	got := Names([]int{IdxFirstName, IdxLastName})
	if len(got) != 2 || got[0] != "first_name" || got[1] != "last_name" {
		t.Errorf("Names = %v", got)
	}
}

func TestYearOfBirthMalformedDate(t *testing.T) {
	r := testRecord()
	r.SetName("snapshot_dt", "not-a-date")
	if got := r.YearOfBirth(); got != 0 {
		t.Errorf("YearOfBirth with bad date = %d", got)
	}
}

func TestStreamTSVAbortsOnCallbackError(t *testing.T) {
	snap := Snapshot{Date: "2020-01-01", Records: []Record{testRecord(), testRecord()}}
	var buf bytes.Buffer
	if err := WriteTSV(&buf, snap); err != nil {
		t.Fatal(err)
	}
	n := 0
	_, err := StreamTSV(&buf, func(Record) error {
		n++
		return fmt.Errorf("stop")
	})
	if err == nil || n != 1 {
		t.Errorf("callback error not propagated: n=%d err=%v", n, err)
	}
}

func TestStreamTSVRejectsShortRow(t *testing.T) {
	header := make([]string, NumAttributes)
	for i, a := range Attributes {
		header[i] = a.Name
	}
	input := strings.Join(header, "\t") + "\nonly\tthree\tcolumns\n"
	if _, err := StreamTSV(strings.NewReader(input), func(Record) error { return nil }); err == nil {
		t.Error("short row accepted")
	}
}

func TestWriteSnapshotFileBadDirectory(t *testing.T) {
	if _, err := WriteSnapshotFile("/no/such/dir", Snapshot{Date: "2020-01-01"}); err == nil {
		t.Error("bad directory accepted")
	}
}

func TestReadSnapshotFileMissing(t *testing.T) {
	if _, err := ReadSnapshotFile("/no/such/file.tsv"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestWriteTSVRejectsWrongWidth(t *testing.T) {
	bad := Record{Values: []string{"too", "short"}}
	if err := WriteTSV(&bytes.Buffer{}, Snapshot{Records: []Record{bad}}); err == nil {
		t.Error("wrong-width record accepted")
	}
}
