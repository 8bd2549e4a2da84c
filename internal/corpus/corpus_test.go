package corpus

import (
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/dedup"
)

func smallCompanyConfig(seed int64) CompanyConfig {
	return DefaultCompanyConfig(seed, 150, 6)
}

func TestCompanySnapshotsWellFormed(t *testing.T) {
	snaps := GenerateCompanies(smallCompanyConfig(1))
	if len(snaps) != 6 {
		t.Fatalf("snapshots = %d", len(snaps))
	}
	schema := CompanySchema()
	for si, s := range snaps {
		if len(s.Records) == 0 {
			t.Fatalf("snapshot %d empty", si)
		}
		for ri, r := range s.Records {
			if len(r.Values) != len(schema.Attrs) {
				t.Fatalf("snapshot %d record %d width %d", si, ri, len(r.Values))
			}
			if r.ObjectID == "" {
				t.Fatalf("snapshot %d record %d misses object id", si, ri)
			}
		}
	}
	if len(snaps[0].Records) != 150 {
		t.Errorf("first snapshot = %d records", len(snaps[0].Records))
	}
	if len(snaps[5].Records) <= len(snaps[0].Records) {
		t.Error("register did not grow")
	}
}

func TestCompanyDeterminism(t *testing.T) {
	a := GenerateCompanies(smallCompanyConfig(2))
	b := GenerateCompanies(smallCompanyConfig(2))
	for i := range a {
		if len(a[i].Records) != len(b[i].Records) {
			t.Fatalf("snapshot %d sizes differ", i)
		}
		for j := range a[i].Records {
			for k := range a[i].Records[j].Values {
				if a[i].Records[j].Values[k] != b[i].Records[j].Values[k] {
					t.Fatalf("non-deterministic value at %d/%d/%d", i, j, k)
				}
			}
		}
	}
}

func buildCompanyDataset(t *testing.T, seed int64) *Dataset {
	t.Helper()
	d := NewDataset(CompanySchema())
	for _, s := range GenerateCompanies(smallCompanyConfig(seed)) {
		if _, err := d.ImportSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestGenericPipelineDeduplicates(t *testing.T) {
	d := buildCompanyDataset(t, 3)
	if d.NumRecords() >= d.TotalRows() {
		t.Errorf("no deduplication: %d records of %d rows", d.NumRecords(), d.TotalRows())
	}
	removed := float64(d.TotalRows()-d.NumRecords()) / float64(d.TotalRows())
	if removed < 0.5 {
		t.Errorf("removed %.1f%%, want > 50%% (snapshots repeat filings)", 100*removed)
	}
	if d.NumPairs() == 0 {
		t.Error("no fuzzy duplicates survived")
	}
	// First snapshot: everything new.
	first := d.Imports()[0]
	if first.NewRecords != first.Rows || first.NewObjects != first.Rows {
		t.Errorf("first import = %+v", first)
	}
	// Later snapshots: mostly repeats.
	last := d.Imports()[len(d.Imports())-1]
	if float64(last.NewRecords) > 0.6*float64(last.Rows) {
		t.Errorf("last import still %d/%d new", last.NewRecords, last.Rows)
	}
}

func TestVolatileColumnsIgnored(t *testing.T) {
	// Status flips (ACTIVE -> DISSOLVED) must not create new records.
	schema := CompanySchema()
	d := NewDataset(schema)
	rec := make([]string, len(schema.Attrs))
	rec[0] = "ATLAS FOODS INC"
	rec[11] = "ACTIVE"
	d.ImportSnapshot(Snapshot{Date: "2010-01-01", Records: []Record{{ObjectID: "R1", Values: rec}}})
	rec2 := append([]string(nil), rec...)
	rec2[11] = "DISSOLVED"
	st, _ := d.ImportSnapshot(Snapshot{Date: "2011-01-01", Records: []Record{{ObjectID: "R1", Values: rec2}}})
	if st.NewRecords != 0 || d.NumRecords() != 1 {
		t.Errorf("status flip created a record: %+v, records %d", st, d.NumRecords())
	}
	// The surviving record lists both snapshots.
	c := d.Cluster("R1")
	if len(c.Snapshots[0]) != 2 {
		t.Errorf("snapshot list = %v", c.Snapshots[0])
	}
}

func TestImportRejectsBadWidth(t *testing.T) {
	d := NewDataset(CompanySchema())
	_, err := d.ImportSnapshot(Snapshot{Date: "x", Records: []Record{{ObjectID: "R", Values: []string{"too", "short"}}}})
	if err == nil {
		t.Fatal("bad record width accepted")
	}
}

func TestClusterHeterogeneityAndWeights(t *testing.T) {
	d := buildCompanyDataset(t, 4)
	w := d.Weights()
	if len(w) != len(CompanySchema().Attrs) {
		t.Fatalf("weights = %d", len(w))
	}
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum = %v", sum)
	}
	hs := d.ClusterHeterogeneity()
	if len(hs) == 0 {
		t.Fatal("no multi-record clusters")
	}
	for _, h := range hs {
		if h < 0 || h > 1 {
			t.Fatalf("heterogeneity out of range: %v", h)
		}
	}
}

func TestExportAndDetect(t *testing.T) {
	d := buildCompanyDataset(t, 5)
	ds := d.Export()
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Name != "companies" || len(ds.NameAttrs) != 2 {
		t.Errorf("export meta: %s %v", ds.Name, ds.NameAttrs)
	}
	if ds.NumTruePairs() != d.NumPairs() {
		t.Errorf("pairs: export %d vs pipeline %d", ds.NumTruePairs(), d.NumPairs())
	}
	// The full detection substrate works on the new domain out of the box.
	cands, _ := blocking.Generate(ds, blocking.Config{Passes: blocking.EntropyPasses(ds, 4), Window: 20})
	f1, _ := dedup.EvaluateCandidatesParallel(ds, dedup.MeasureMELev, cands, 50, dedup.ScoreOpts{}).BestF1()
	if f1 < 0.5 {
		t.Errorf("company-register detection best F1 = %v, want >= 0.5", f1)
	}
}

func TestCompanyValuesUpperCaseMostly(t *testing.T) {
	snaps := GenerateCompanies(smallCompanyConfig(6))
	upper := 0
	total := 0
	for _, r := range snaps[0].Records {
		total++
		if r.Values[0] == strings.ToUpper(r.Values[0]) {
			upper++
		}
	}
	if float64(upper)/float64(total) < 0.9 {
		t.Errorf("register style broken: only %d/%d upper-case", upper, total)
	}
}
