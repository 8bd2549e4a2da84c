package dedup

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestDatasetFileRoundTrip(t *testing.T) {
	ds := &Dataset{
		Name:      "roundtrip",
		Attrs:     []string{"first", "last"},
		NameAttrs: []int{0, 1},
		Records: [][]string{
			{"JOHN", "SMITH"},
			{"JON", "SMITH"},
			{"MARY", "JONES"},
		},
		ClusterOf: []int{0, 0, 1},
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := readFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "roundtrip" {
		t.Errorf("name = %q", got.Name)
	}
	if len(got.NameAttrs) != 2 || got.NameAttrs[0] != 0 {
		t.Errorf("name attrs = %v", got.NameAttrs)
	}
	if got.NumRecords() != 3 || got.NumClusters() != 2 {
		t.Errorf("records/clusters = %d/%d", got.NumRecords(), got.NumClusters())
	}
	for i := range ds.Records {
		for j := range ds.Records[i] {
			if got.Records[i][j] != ds.Records[i][j] {
				t.Fatalf("value mismatch at %d/%d", i, j)
			}
		}
	}
}

func TestDatasetFileOnDisk(t *testing.T) {
	ds := &Dataset{
		Name:      "disk",
		Attrs:     []string{"a"},
		Records:   [][]string{{"x"}},
		ClusterOf: []int{7},
	}
	path := filepath.Join(t.TempDir(), "ds.tsv")
	if err := ds.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.ClusterOf[0] != 7 {
		t.Errorf("cluster id = %d", got.ClusterOf[0])
	}
}

func TestReadFromRejectsMalformed(t *testing.T) {
	cases := []string{
		"",
		"bogus\theader\nx\ty\n",
		"cluster_id\ta\nnotanumber\tx\n",
		"cluster_id\ta\n1\tx\textra\n",
		"#nameattrs:0,0,1\ncluster_id\ta\tb\n1\tx\ty\n",                       // a repeated name attribute weighs twice
		"#nameattrs:0,1,2,3,4\ncluster_id\ta\tb\tc\td\te\n1\tv\tw\tx\ty\tz\n", // n! assignments per pair
	}
	for i, c := range cases {
		if _, err := readFrom(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: malformed input accepted", i)
		}
	}
}

func TestWriteToRejectsTabs(t *testing.T) {
	ds := &Dataset{
		Name:      "bad",
		Attrs:     []string{"a"},
		Records:   [][]string{{"x\ty"}},
		ClusterOf: []int{0},
	}
	if err := ds.Write(&bytes.Buffer{}); err == nil {
		t.Error("tab inside a value accepted")
	}
}
