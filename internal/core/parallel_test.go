package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/voter"
)

// buildScoredInput creates a dataset with many multi-record clusters.
func buildScoredInput(n int) *Dataset {
	d := NewDataset(RemoveTrimmed)
	var recs []voter.Record
	for c := 0; c < n; c++ {
		for v := 0; v < 3; v++ {
			r := voter.NewRecord()
			r.SetName("ncid", fmt.Sprintf("C%05d", c))
			r.SetName("first_name", fmt.Sprintf("NAME%d", c))
			r.SetName("last_name", fmt.Sprintf("LAST%d-%d", c, v))
			recs = append(recs, r)
		}
	}
	d.ImportSnapshot(voter.Snapshot{Date: "2008-01-01", Records: recs})
	return d
}

func TestParallelMatchesSequential(t *testing.T) {
	scorer := func(a, b voter.Record) float64 {
		if a.GetName("last_name") == b.GetName("last_name") {
			return 1
		}
		return 0.5
	}
	seq := buildScoredInput(200)
	seq.UpdateScores(pairwise("k", scorer), 1, nil)
	par := buildScoredInput(200)
	par.UpdateScores(pairwise("k", scorer), 8, nil)

	if seq.NumClusters() != par.NumClusters() {
		t.Fatal("cluster counts differ")
	}
	for _, id := range seq.NCIDs() {
		a, b := seq.Cluster(id), par.Cluster(id)
		for i := 1; i < len(a.Records); i++ {
			for j := 0; j < i; j++ {
				sa, oka := a.PairScore("k", i, j)
				sb, okb := b.PairScore("k", i, j)
				if oka != okb || sa != sb {
					t.Fatalf("cluster %s pair (%d,%d): %v/%v vs %v/%v", id, i, j, sa, oka, sb, okb)
				}
			}
		}
	}
}

func TestParallelSingleWorkerFallsBack(t *testing.T) {
	d := buildScoredInput(10)
	d.UpdateScores(pairwise("k", func(a, b voter.Record) float64 { return 0.7 }), 1, nil)
	if s, ok := d.Cluster("C00000").PairScore("k", 1, 0); !ok || s != 0.7 {
		t.Errorf("score = %v, %v", s, ok)
	}
}

func TestParallelIncrementalAcrossVersions(t *testing.T) {
	d := buildScoredInput(50)
	d.UpdateScores(pairwise("k", func(a, b voter.Record) float64 { return 1 }), 4, nil)
	d.Publish()
	// Second round with a contradicting scorer: old pairs must keep their
	// stored value.
	var recs []voter.Record
	for c := 0; c < 50; c++ {
		r := voter.NewRecord()
		r.SetName("ncid", fmt.Sprintf("C%05d", c))
		r.SetName("first_name", "NEW")
		r.SetName("last_name", fmt.Sprintf("NEW%d", c))
		recs = append(recs, r)
	}
	d.ImportSnapshot(voter.Snapshot{Date: "2009-01-01", Records: recs})
	d.UpdateScores(pairwise("k", func(a, b voter.Record) float64 { return 0.25 }), 4, nil)
	d.Publish()

	c := d.Cluster("C00000")
	if s, _ := c.PairScore("k", 1, 0); s != 1 {
		t.Errorf("old pair recomputed: %v", s)
	}
	if s, _ := c.PairScore("k", 3, 0); s != 0.25 {
		t.Errorf("new pair = %v", s)
	}
}

// twoKinds is a cluster scorer writing two kinds in one pass, like the fused
// heterogeneity scorer: kind "a" scores i+j/100, kind "b" its negation. It
// records the from index of every call.
type twoKinds struct{ froms *[]int }

func (twoKinds) Kinds() []string { return []string{"a", "b"} }

func (k twoKinds) ScoreCluster(recs []RecordEntry, from int, put func(kind, i, j int, s float64)) {
	*k.froms = append(*k.froms, from)
	for i := from; i < len(recs); i++ {
		for j := i - 1; j >= 0; j-- { // any order is allowed
			s := float64(i) + float64(j)/100
			put(0, i, j, s)
			put(1, i, j, -s)
		}
	}
}

// TestUpdateScoresMapShape pins what the persisted bytes depend on: every
// visited cluster gets a map per kind — empty for singletons, which never
// reach the scorer — and a fully scored cluster is not handed to it again.
func TestUpdateScoresMapShape(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01",
		rec("SOLO", "ANN", "LEE", ""),
		rec("A1", "JOHN", "SMITH", ""), rec("A1", "JON", "SMITH", ""), rec("A1", "JO", "SMITH", "")))
	d.Publish()
	var froms []int
	factory := func() ClusterScorer { return twoKinds{&froms} }
	d.UpdateScores(factory, 1, nil)
	d.UpdateScores(factory, 1, nil)
	if !reflect.DeepEqual(froms, []int{1}) {
		t.Fatalf("scorer called with from = %v, want one call from 1", froms)
	}
	for _, kind := range []string{"a", "b"} {
		vm, ok := d.Cluster("SOLO").SimMaps[kind]
		if !ok || vm == nil || len(vm) != 0 {
			t.Errorf("singleton %s map = %v (present %v), want empty non-nil", kind, vm, ok)
		}
	}
	want := VersionSimMap{1: {1: {0: 1}, 2: {0: 2, 1: 2.01}}}
	if got := d.Cluster("A1").SimMaps["a"]; !reflect.DeepEqual(got, want) {
		t.Errorf("kind a = %v, want %v", got, want)
	}
}

// TestUpdateScoresUnequalKinds covers a store that carries only one of a
// scorer's kinds: scoring starts at the smaller index, the complete kind
// keeps its stored rows and the other gains exactly the missing ones.
func TestUpdateScoresUnequalKinds(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01", rec("A1", "JOHN", "SMITH", ""), rec("A1", "JON", "SMITH", "")))
	d.Publish()
	d.UpdateScores(pairwise("a", func(a, b voter.Record) float64 { return 0.5 }), 1, nil)
	d.ImportSnapshot(snap("2009-01-01", rec("A1", "JO", "SMITH", "")))
	d.Publish()

	var froms []int
	d.UpdateScores(func() ClusterScorer { return twoKinds{&froms} }, 1, nil)
	if !reflect.DeepEqual(froms, []int{1}) {
		t.Fatalf("from = %v, want [1]", froms)
	}
	c := d.Cluster("A1")
	wantA := VersionSimMap{1: {1: {0: 0.5}}, 2: {2: {0: 2, 1: 2.01}}}
	wantB := VersionSimMap{1: {1: {0: -1}}, 2: {2: {0: -2, 1: -2.01}}}
	if !reflect.DeepEqual(c.SimMaps["a"], wantA) {
		t.Errorf("kind a = %v, want %v", c.SimMaps["a"], wantA)
	}
	if !reflect.DeepEqual(c.SimMaps["b"], wantB) {
		t.Errorf("kind b = %v, want %v", c.SimMaps["b"], wantB)
	}
}

func BenchmarkUpdateScoresSequential(b *testing.B) {
	scorer := func(a, b voter.Record) float64 { return 0.5 }
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := buildScoredInput(500)
		b.StartTimer()
		d.UpdateScores(pairwise("k", scorer), 1, nil)
	}
}

func BenchmarkUpdateScoresParallel(b *testing.B) {
	scorer := func(a, b voter.Record) float64 { return 0.5 }
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := buildScoredInput(500)
		b.StartTimer()
		d.UpdateScores(pairwise("k", scorer), 0, nil)
	}
}
