package errstats

import (
	"testing"

	"repro/internal/core"
	"repro/internal/voter"
)

// in3 builds an input over three attributes (first, middle, last).
func in3(clusters ...[][]string) Input {
	in := Input{Attrs: []string{"first", "midl", "last"}}
	for _, cl := range clusters {
		var idx []int
		for _, rec := range cl {
			idx = append(idx, len(in.Records))
			in.Records = append(in.Records, rec)
		}
		in.Clusters = append(in.Clusters, idx)
	}
	return in
}

func TestSingletonIrregularities(t *testing.T) {
	in := Input{
		Attrs:   []string{"first", "age"},
		AgeAttr: "age",
		Records: [][]string{
			{"JOHN", "45"},
			{"A.", "5069"},  // abbreviation + age outlier
			{"", "44"},      // missing
			{"X ÆA-12", ""}, // hmm: digits in a name are usual per our rule; Æ is a letter; missing age
			{"J@HN", "40"},  // unusual character outlier
		},
	}
	tab := Analyze(in)
	if got := tab.Singletons[Abbreviation].Total; got != 1 {
		t.Errorf("abbreviations = %d, want 1", got)
	}
	if got := tab.Singletons[Missing].Total; got != 2 {
		t.Errorf("missing = %d, want 2", got)
	}
	if got := tab.Singletons[Outlier].PerAttr["age"]; got != 1 {
		t.Errorf("age outliers = %d, want 1", got)
	}
	if got := tab.Singletons[Outlier].PerAttr["first"]; got != 1 {
		t.Errorf("name outliers = %d, want 1", got)
	}
	if attr, n := tab.Singletons[Missing].MostCommon(); n != 1 || attr == "" {
		t.Errorf("missing most common = %s/%d", attr, n)
	}
	if tab.TotalRecords != 5 {
		t.Errorf("total records = %d", tab.TotalRecords)
	}
}

func TestTypoDetection(t *testing.T) {
	tab := Analyze(in3([][]string{
		{"ADELL", "", "SMITH"},
		{"ADELE", "", "SMITH"},
	}))
	if got := tab.PairBased[Typo].PerAttr["first"]; got != 1 {
		t.Errorf("typos = %d, want 1", got)
	}
	// Short values (<= 2 chars) never count as typos.
	tab = Analyze(in3([][]string{
		{"AB", "", "X"},
		{"BA", "", "X"},
	}))
	if got := tab.PairBased[Typo].Total; got != 0 {
		t.Errorf("short-value typos = %d, want 0", got)
	}
}

func TestOCRErrorDetection(t *testing.T) {
	tab := Analyze(in3([][]string{
		{"", "", "NICOLE"},
		{"", "", "NIC0LE"},
	}))
	if got := tab.PairBased[OCRError].PerAttr["last"]; got != 1 {
		t.Errorf("OCR errors = %d, want 1", got)
	}
	// Both digits differing disqualifies.
	tab = Analyze(in3([][]string{
		{"", "", "A1B"},
		{"", "", "A2B"},
	}))
	if got := tab.PairBased[OCRError].Total; got != 0 {
		t.Errorf("digit-digit OCR = %d, want 0", got)
	}
}

func TestPhoneticDetection(t *testing.T) {
	tab := Analyze(in3([][]string{
		{"", "", "BAILEY"},
		{"", "", "BAYLEE"},
	}))
	if got := tab.PairBased[Phonetic].PerAttr["last"]; got != 1 {
		t.Errorf("phonetic = %d, want 1", got)
	}
}

func TestPrefixPostfixDetection(t *testing.T) {
	tab := Analyze(in3([][]string{
		{"KIM", "", "BRAGGTOWN"},
		{"KIMBERLY", "", "TOWN"},
	}))
	if got := tab.PairBased[Prefix].PerAttr["first"]; got != 1 {
		t.Errorf("prefix = %d, want 1", got)
	}
	if got := tab.PairBased[Postfix].PerAttr["last"]; got != 1 {
		t.Errorf("postfix = %d, want 1", got)
	}
	// Trailing punctuation on the shorter value is forgiven.
	tab = Analyze(in3([][]string{
		{"J.", "", ""},
		{"JOHN", "", ""},
	}))
	if got := tab.PairBased[Prefix].Total; got != 1 {
		t.Errorf("abbreviated prefix = %d, want 1", got)
	}
}

func TestFormattingDetection(t *testing.T) {
	tab := Analyze(in3([][]string{
		{"", "", "JRS RIDGE"},
		{"", "", "JRS-RIDGE"},
	}))
	if got := tab.PairBased[Formatting].PerAttr["last"]; got != 1 {
		t.Errorf("formatting = %d, want 1", got)
	}
}

func TestTokenTranspositionDetection(t *testing.T) {
	tab := Analyze(in3([][]string{
		{"ANH THI", "", ""},
		{"THI ANH", "", ""},
	}))
	if got := tab.PairBased[TokenTransp].PerAttr["first"]; got != 1 {
		t.Errorf("token transposition = %d, want 1", got)
	}
}

func TestValueConfusionDetection(t *testing.T) {
	tab := Analyze(in3([][]string{
		{"JOSE", "", "JUAN"},
		{"JUAN", "", "JOSE"},
	}))
	if got := tab.PairBased[ValueConfusion].PerAttr["first/last"]; got != 1 {
		t.Errorf("value confusion = %d, want 1", got)
	}
}

func TestIntegratedValueDetection(t *testing.T) {
	// Middle name integrated into the last name.
	tab := Analyze(in3([][]string{
		{"A", "MAN", "LI"},
		{"A", "", "LI MAN"},
	}))
	if got := tab.PairBased[IntegratedValue].PerAttr["midl/last"]; got != 1 {
		t.Errorf("integrated value = %d, want 1", got)
	}
}

func TestScatteredValueDetection(t *testing.T) {
	tab := Analyze(in3([][]string{
		{"X", "AN LE", "MA"},
		{"X", "AN", "LE MA"},
	}))
	if got := tab.PairBased[ScatteredValue].PerAttr["midl/last"]; got != 1 {
		t.Errorf("scattered value = %d, want 1", got)
	}
	// Confusions are not double-counted as scattered.
	tab = Analyze(in3([][]string{
		{"X", "AN", "MA"},
		{"X", "MA", "AN"},
	}))
	if got := tab.PairBased[ScatteredValue].Total; got != 0 {
		t.Errorf("confusion counted as scattered: %d", got)
	}
	if got := tab.PairBased[ValueConfusion].Total; got != 1 {
		t.Errorf("confusion = %d, want 1", got)
	}
}

func TestPairCountsAndPercentages(t *testing.T) {
	tab := Analyze(in3(
		[][]string{
			{"ADELL", "", "X"},
			{"ADELE", "", "X"},
			{"ADELL", "", "X"},
		},
		[][]string{
			{"B", "", "Y"},
		},
	))
	if tab.TotalPairs != 3 {
		t.Fatalf("total pairs = %d, want 3", tab.TotalPairs)
	}
	// Two of three pairs differ by the typo.
	if got := tab.PairBased[Typo].Total; got != 2 {
		t.Errorf("typos = %d, want 2", got)
	}
	_, n := tab.PairBased[Typo].MostCommon()
	pct := float64(n) / float64(tab.TotalPairs)
	if pct < 0.66 || pct > 0.67 {
		t.Errorf("typo pct = %v, want 2/3", pct)
	}
}

func TestFromDataset(t *testing.T) {
	d := core.NewDataset(core.RemoveTrimmed)
	mk := func(ncid, first, midl, last string) voter.Record {
		r := voter.NewRecord()
		r.SetName("ncid", ncid)
		r.SetName("first_name", first)
		r.SetName("midl_name", midl)
		r.SetName("last_name", last)
		r.SetName("age", "40")
		return r
	}
	d.ImportSnapshot(voter.Snapshot{Date: "2008-01-01", Records: []voter.Record{
		mk("A", "ADELL", "", "SMITH"),
		mk("A", "ADELE", "", "SMITH"),
		mk("B", "JOSE", "", "JUAN"),
		mk("B", "JUAN", "", "JOSE"),
	}})
	in := FromDataset(d)
	if len(in.Attrs) != 38 {
		t.Fatalf("attrs = %d", len(in.Attrs))
	}
	if len(in.Records) != 4 || len(in.Clusters) != 2 {
		t.Fatalf("records/clusters = %d/%d", len(in.Records), len(in.Clusters))
	}
	if len(in.ConfusablePairs) != 3 {
		t.Fatalf("confusable pairs = %d", len(in.ConfusablePairs))
	}
	tab := Analyze(in)
	if got := tab.PairBased[Typo].PerAttr["first_name"]; got != 1 {
		t.Errorf("typo in first_name = %d", got)
	}
	if got := tab.PairBased[ValueConfusion].PerAttr["first_name/last_name"]; got != 1 {
		t.Errorf("confusion = %d", got)
	}
	// The 38-attribute schema must not auto-enumerate all pairs.
	if tab.TotalPairs != 2 {
		t.Errorf("pairs = %d", tab.TotalPairs)
	}
}

func BenchmarkAnalyzePair(b *testing.B) {
	in := in3([][]string{
		{"ADELL", "MAN LI", "BRAGGTOWN"},
		{"ADELE", "", "LI MAN BRAGG"},
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Analyze(in)
	}
}
