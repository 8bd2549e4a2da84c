package custom

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/synth"
)

// buildInput generates a small historical dataset with heterogeneity
// scores.
func buildInput(t *testing.T) *core.Dataset {
	t.Helper()
	cfg := synth.DefaultConfig(5, 250)
	cfg.Snapshots = synth.Calendar(2008, 6)
	d := core.NewDataset(core.RemoveTrimmed)
	sim := synth.New(cfg)
	for i := 0; i < sim.NumSnapshots(); i++ {
		d.ImportSnapshot(sim.Next())
	}
	hetero.Update(d)
	d.Publish()
	return d
}

func TestBuildRespectsHeterogeneityRange(t *testing.T) {
	d := buildInput(t)
	cfg := NC1Config(1, 200, 40)
	ds := Build(d, cfg)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds.Name != "NC1" {
		t.Errorf("name = %s", ds.Name)
	}
	if ds.NumClusters() == 0 || ds.NumClusters() > 40 {
		t.Fatalf("clusters = %d, want in (0, 40]", ds.NumClusters())
	}
	if len(ds.Attrs) != 38 {
		t.Errorf("attrs = %d, want 38 person attributes", len(ds.Attrs))
	}
	if len(ds.NameAttrs) != 3 {
		t.Errorf("name attrs = %v", ds.NameAttrs)
	}
	// Every kept pair inside one cluster respects the range when rescored
	// against the *input* weights is hard to assert exactly (weights of the
	// output differ); assert the output's average heterogeneity is low.
	ch := Describe(ds)
	if ch.AvgHetero > 0.3 {
		t.Errorf("NC1 avg heterogeneity = %v, want <= 0.3", ch.AvgHetero)
	}
}

func TestHeterogeneityOrderingAcrossSettings(t *testing.T) {
	d := buildInput(t)
	nc1 := Describe(Build(d, NC1Config(1, 200, 30)))
	nc3 := Describe(Build(d, NC3Config(1, 200, 30)))
	// NC3 clusters are rare in a clean register; the paper relies on the
	// sheer size of the input. At test scale NC3 may be small, but whenever
	// it has pairs they must be dirtier than NC1's.
	if nc3.DupPairs > 0 && nc1.DupPairs > 0 && nc3.AvgHetero <= nc1.AvgHetero {
		t.Errorf("NC3 avg hetero (%v) should exceed NC1 (%v)", nc3.AvgHetero, nc1.AvgHetero)
	}
	if nc1.DupPairs == 0 {
		t.Error("NC1 has no duplicate pairs at all")
	}
}

func TestBuildDeterminism(t *testing.T) {
	d := buildInput(t)
	a := Build(d, NC1Config(9, 100, 20))
	b := Build(d, NC1Config(9, 100, 20))
	if len(a.Records) != len(b.Records) {
		t.Fatal("non-deterministic record count")
	}
	for i := range a.Records {
		for j := range a.Records[i] {
			if a.Records[i][j] != b.Records[i][j] {
				t.Fatalf("non-deterministic value at %d/%d", i, j)
			}
		}
	}
}

func TestSelectTopKeepsLargestClusters(t *testing.T) {
	d := buildInput(t)
	all := Build(d, Config{Name: "ALL", HLow: 0, HHigh: 1, SampleClusters: 0, SelectTop: 0, Seed: 1})
	top := Build(d, Config{Name: "TOP", HLow: 0, HHigh: 1, SampleClusters: 0, SelectTop: 10, Seed: 1})
	if top.NumClusters() != 10 {
		t.Fatalf("top clusters = %d", top.NumClusters())
	}
	// The smallest selected cluster is at least as large as the largest
	// non-selected cluster would demand: cheap proxy — avg size of TOP >=
	// avg size of ALL.
	if top.AvgClusterSize() < all.AvgClusterSize() {
		t.Errorf("top avg %v < all avg %v", top.AvgClusterSize(), all.AvgClusterSize())
	}
}

func TestFullRangeKeepsEverythingFirstRecord(t *testing.T) {
	d := buildInput(t)
	ds := Build(d, Config{Name: "X", HLow: 0, HHigh: 1, Seed: 2})
	// With the full range, no record is dropped: counts match the input.
	if ds.NumRecords() != d.NumRecords() {
		t.Errorf("full-range records = %d, input %d", ds.NumRecords(), d.NumRecords())
	}
	if ds.NumClusters() != d.NumClusters() {
		t.Errorf("full-range clusters = %d, input %d", ds.NumClusters(), d.NumClusters())
	}
}

func TestDescribeStructure(t *testing.T) {
	d := buildInput(t)
	ds := Build(d, NC1Config(3, 150, 25))
	ch := Describe(ds)
	if ch.Records != ds.NumRecords() || ch.Clusters != ds.NumClusters() {
		t.Errorf("Describe counts mismatch: %+v", ch)
	}
	if ch.MaxHetero < ch.AvgHetero {
		t.Errorf("max hetero %v < avg %v", ch.MaxHetero, ch.AvgHetero)
	}
	if ch.AvgCluster <= 0 {
		t.Errorf("avg cluster = %v", ch.AvgCluster)
	}
	hs := PairHeterogeneities(ds)
	if len(hs) != ch.DupPairs {
		t.Errorf("pair heterogeneities = %d, pairs = %d", len(hs), ch.DupPairs)
	}
}
