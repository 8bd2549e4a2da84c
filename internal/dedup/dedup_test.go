package dedup

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/corrupt"
)

// toyDataset builds a small labeled dataset: nClusters clusters of size
// sizes[i%len(sizes)], values drawn from pools with light typos on
// duplicates.
func toyDataset(t testing.TB, nClusters int, sizes []int, errRate float64) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	firsts := []string{"JOHN", "MARY", "ROBERT", "LINDA", "JAMES", "PATRICIA", "DAVID", "BARBARA", "WILLIAM", "SUSAN"}
	lasts := []string{"SMITH", "JOHNSON", "BROWN", "DAVIS", "MILLER", "WILSON", "MOORE", "TAYLOR", "THOMAS", "WHITE"}
	cities := []string{"RALEIGH", "DURHAM", "CARY", "APEX", "WILSON"}
	ds := &Dataset{
		Name:      "toy",
		Attrs:     []string{"first", "middle", "last", "city", "zip"},
		NameAttrs: []int{0, 1, 2},
	}
	for c := 0; c < nClusters; c++ {
		base := []string{
			firsts[rng.Intn(len(firsts))],
			firsts[rng.Intn(len(firsts))][:1],
			lasts[rng.Intn(len(lasts))],
			cities[rng.Intn(len(cities))],
			fmt.Sprintf("27%03d", rng.Intn(1000)),
		}
		size := sizes[c%len(sizes)]
		for d := 0; d < size; d++ {
			rec := append([]string(nil), base...)
			if d > 0 && rng.Float64() < errRate {
				rec[0] = corrupt.Typo(rng, rec[0])
			}
			if d > 0 && rng.Float64() < errRate/2 {
				rec[2] = corrupt.Typo(rng, rec[2])
			}
			ds.Records = append(ds.Records, rec)
			ds.ClusterOf = append(ds.ClusterOf, c)
		}
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	return ds
}

// allPairs is every pair i < j over n records: the candidate set of the
// tests whose subject is scoring, not blocking (which this package cannot
// import).
func allPairs(n int) []Pair {
	var out []Pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, Pair{i, j})
		}
	}
	return out
}

func TestDatasetStats(t *testing.T) {
	ds := toyDataset(t, 10, []int{1, 2, 3}, 0.5)
	if ds.NumClusters() != 10 {
		t.Errorf("clusters = %d", ds.NumClusters())
	}
	// sizes cycle 1,2,3: 4 clusters of 1, 3 of 2, 3 of 3 -> 4+6+9 = 19 recs.
	if ds.NumRecords() != 19 {
		t.Errorf("records = %d", ds.NumRecords())
	}
	// pairs: 3*1 + 3*3 = 12.
	if ds.NumTruePairs() != 12 {
		t.Errorf("true pairs = %d", ds.NumTruePairs())
	}
	if ds.NonSingletonClusters() != 6 {
		t.Errorf("non-singletons = %d", ds.NonSingletonClusters())
	}
	if ds.MaxClusterSize() != 3 {
		t.Errorf("max cluster = %d", ds.MaxClusterSize())
	}
	if got := ds.AvgClusterSize(); got < 1.89 || got > 1.91 {
		t.Errorf("avg cluster = %v", got)
	}
}

func TestValidateCatchesMistakes(t *testing.T) {
	ds := &Dataset{Name: "bad", Attrs: []string{"a"}, Records: [][]string{{"x"}}, ClusterOf: nil}
	if ds.Validate() == nil {
		t.Error("label/record mismatch accepted")
	}
	ds = &Dataset{Name: "bad", Attrs: []string{"a", "b"}, Records: [][]string{{"x"}}, ClusterOf: []int{0}}
	if ds.Validate() == nil {
		t.Error("width mismatch accepted")
	}
	ds = &Dataset{Name: "bad", Attrs: []string{"a"}, Records: [][]string{{"x"}}, ClusterOf: []int{0}, NameAttrs: []int{5}}
	if ds.Validate() == nil {
		t.Error("out-of-range name attr accepted")
	}
}

func TestTrimmed(t *testing.T) {
	ds := &Dataset{Name: "w", Attrs: []string{"a"}, Records: [][]string{{" x "}}, ClusterOf: []int{0}}
	tr := ds.Trimmed()
	if tr.Records[0][0] != "x" {
		t.Errorf("trimmed = %q", tr.Records[0][0])
	}
	if ds.Records[0][0] != " x " {
		t.Error("Trimmed mutated the original")
	}
}

func TestMatcherIdenticalRecords(t *testing.T) {
	ds := toyDataset(t, 5, []int{2}, 0)
	for _, m := range Measures {
		mt := newMatcher(ds, m)
		// Records 0 and 1 are exact copies.
		if got := mt.recordSim(0, 1); got < 0.999 {
			t.Errorf("%s: identical records sim = %v", m, got)
		}
	}
}

func TestMatcherNameConfusionHandled(t *testing.T) {
	ds := &Dataset{
		Name:      "confused",
		Attrs:     []string{"first", "middle", "last", "city"},
		NameAttrs: []int{0, 1, 2},
		Records: [][]string{
			{"DEBRA", "OEHRLE", "WILLIAMS", "DURHAM"},
			{"WILLIAMS", "DEBRA", "OEHRLE", "DURHAM"}, // names rotated
			{"MARY", "L", "FIELDS", "RALEIGH"},
			{"JOHN", "Q", "PUBLIC", "APEX"},
		},
		ClusterOf: []int{0, 0, 1, 2},
	}
	mt := newMatcher(ds, MeasureMELev)
	confused := mt.recordSim(0, 1)
	different := mt.recordSim(0, 2)
	if confused < 0.99 {
		t.Errorf("rotated names sim = %v, want ~1 (1:1 matching)", confused)
	}
	if confused <= different {
		t.Errorf("confusion (%v) should outscore different person (%v)", confused, different)
	}
}

func TestMatcherWeightsSumToOne(t *testing.T) {
	ds := toyDataset(t, 10, []int{2}, 0.5)
	w := newMatcher(ds, MeasureMELev).weights
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum = %v", sum)
	}
}

func TestMostUniqueAttrs(t *testing.T) {
	ds := &Dataset{
		Name:  "u",
		Attrs: []string{"constant", "unique"},
		Records: [][]string{
			{"X", "A"}, {"X", "B"}, {"X", "C"},
		},
		ClusterOf: []int{0, 1, 2},
	}
	got := MostUniqueAttrs(ds, 1)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("MostUniqueAttrs = %v, want [1]", got)
	}
	if got := MostUniqueAttrs(ds, 10); len(got) != 2 {
		t.Errorf("k beyond schema = %v", got)
	}
}

func BenchmarkRecordSimMELev(b *testing.B) {
	ds := &Dataset{
		Name:      "b",
		Attrs:     []string{"first", "middle", "last", "city", "zip"},
		NameAttrs: []int{0, 1, 2},
		Records: [][]string{
			{"CHRISTOPHER", "LEE", "WILLIAMSON", "FAYETTEVILLE", "28301"},
			{"KRISTOFFER", "L", "WILLIAMSON", "FAYETTEVILE", "28301"},
		},
		ClusterOf: []int{0, 0},
	}
	m := newMatcher(ds, MeasureMELev)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.recordSim(0, 1)
	}
}
