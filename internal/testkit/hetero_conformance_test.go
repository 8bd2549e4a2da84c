package testkit_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/hetero"
	"repro/internal/testkit"
	"repro/internal/voter"
)

// TestConformanceHeteroFused is the oracle of the cluster-level heterogeneity
// scorer: hetero.UpdateParallel / UpdateDelta — one fused pass writing both
// kinds — against the path it replaced, each kind scored pair by pair through
// core.Pairwise over hetero.Scorer.PairSim with its own DatasetWeights call.
// Equal means reflect.DeepEqual datasets (every similarity map, singletons'
// empty ones included) and byte-equal persisted stores, at every worker
// count; make conformance runs it under the race detector.

var heteroKinds = []struct {
	kind string
	cols []int
}{
	{core.KindHeteroAll, hetero.AllColumns()},
	{core.KindHeteroPerson, hetero.PersonColumns()},
}

// referenceHetero brings the given kinds up to date pair by pair.
func referenceHetero(d *core.Dataset, kinds ...int) {
	for _, k := range kinds {
		kind := heteroKinds[k].kind
		s := hetero.NewScorer(heteroKinds[k].cols, hetero.DatasetWeights(d, heteroKinds[k].cols))
		d.UpdateScores(func() core.ClusterScorer { return core.Pairwise(kind, s.PairSim) }, 1, nil)
	}
}

// heteroResult is what equivalence means here.
type heteroResult struct {
	Dataset *core.Dataset
	Store   map[string][]byte
}

// heteroScenario imports snaps one by one, scoring after every round
// (incremental: from > 0 from the second round on) or only after the last.
// personOnlyAfter > 0 scores, after that many rounds and on both sides, only
// heterogeneity_person through the reference path, so the next fused pass
// meets kinds that disagree on the first unscored record.
type heteroScenario struct {
	name            string
	snaps           []voter.Snapshot
	everyRound      bool
	personOnlyAfter int
}

func (sc heteroScenario) build(tb testing.TB, score func(*core.Dataset)) heteroResult {
	d := core.NewDataset(core.RemoveTrimmed)
	for i, snap := range sc.snaps {
		d.ImportSnapshot(snap)
		d.Publish()
		switch {
		case i+1 == sc.personOnlyAfter:
			referenceHetero(d, 1)
		case sc.everyRound || i == len(sc.snaps)-1:
			score(d)
		}
	}
	return heteroResult{d, saveStore(tb, d, tb.TempDir(), docstore.SaveOpts{})}
}

func compareHetero(tb testing.TB, want, got heteroResult) {
	tb.Helper()
	if want.Dataset.NumPairs() == 0 {
		tb.Fatal("reference scored no pairs — fixture too small")
	}
	if !reflect.DeepEqual(want.Dataset, got.Dataset) {
		tb.Error("fused scoring diverged from per-pair scoring (datasets differ)")
	}
	if !reflect.DeepEqual(want.Store, got.Store) {
		tb.Error("fused scoring diverged from per-pair scoring (persisted bytes differ)")
	}
}

// mixedCase rewrites every third record so the kernel's full four-way path
// runs inside the fused scorer too: lower-case letters, a letter that
// lower-cases into ASCII and one whose lower-case form is longer.
func mixedCase(snaps []voter.Snapshot) []voter.Snapshot {
	n := 0
	for _, snap := range snaps {
		for i := range snap.Records {
			r := &snap.Records[i]
			if n++; n%3 != 0 {
				continue
			}
			if first := r.Get(voter.IdxFirstName); len(first) > 1 {
				r.Set(voter.IdxFirstName, first[:1]+strings.ToLower(first[1:]))
			}
			r.Set(voter.IdxLastName, strings.Replace(r.Get(voter.IdxLastName), "K", "\u212a", 1))
			r.Set(voter.IdxBirthPlace, "\u0130"+r.Get(voter.IdxBirthPlace))
		}
	}
	return snaps
}

func TestConformanceHeteroFused(t *testing.T) {
	scenarios := []heteroScenario{
		{name: "full/seed=11", snaps: testkit.Corpus{Seed: 11}.Snapshots(100, 4)},
		{name: "full/seed=23", snaps: testkit.Corpus{Seed: 23}.Snapshots(80, 5)},
		{name: "incremental", snaps: testkit.Corpus{Seed: 11}.Snapshots(100, 4), everyRound: true},
		{name: "unequal-kinds", snaps: testkit.Corpus{Seed: 29}.Snapshots(80, 4), personOnlyAfter: 2},
		{name: "mixed-case", snaps: mixedCase(testkit.Corpus{Seed: 31}.Snapshots(80, 4)), everyRound: true},
	}
	for _, sc := range scenarios {
		sc := sc
		testkit.Differential[heteroResult]{
			Name: "hetero-fused/" + sc.name,
			Sequential: func(tb testing.TB) heteroResult {
				return sc.build(tb, func(d *core.Dataset) { referenceHetero(d, 0, 1) })
			},
			Parallel: func(tb testing.TB, workers int) heteroResult {
				return sc.build(tb, func(d *core.Dataset) { hetero.UpdateParallel(d, workers) })
			},
			Compare: compareHetero,
		}.Run(t)
	}
}

// TestConformanceHeteroFusedSingletons pins the shape the store's bytes
// depend on: a visited cluster without pairs still carries an empty map per
// kind.
func TestConformanceHeteroFusedSingletons(t *testing.T) {
	d := testkit.Corpus{Seed: 11}.Dataset(t, 100, 2)
	hetero.UpdateParallel(d, 2)
	singletons := 0
	d.Clusters(func(c *core.Cluster) bool {
		if len(c.Records) > 1 {
			return true
		}
		singletons++
		for _, k := range heteroKinds {
			if vm, ok := c.SimMaps[k.kind]; !ok || vm == nil || len(vm) != 0 {
				t.Fatalf("singleton %s: %s map = %v (present %v), want empty non-nil", c.NCID, k.kind, vm, ok)
			}
		}
		return true
	})
	if singletons == 0 {
		t.Fatal("corpus has no singleton cluster")
	}
}

// TestConformanceHeteroFusedDelta: hetero.UpdateDelta over the dirty scope of
// an ApplySnapshotDelta against per-pair scoring of a full reimport.
func TestConformanceHeteroFusedDelta(t *testing.T) {
	corpus := testkit.Corpus{Seed: 17}
	basePaths := corpus.SnapshotFiles(t, 120, 3)
	proto := core.NewDataset(core.RemoveTrimmed)
	for _, p := range basePaths {
		importReference(t, proto, p)
		proto.Publish()
	}
	deltaPath, changed, err := testkit.WriteDeltaFile(t.TempDir(), proto, "2097-01-01", 0.25, false)
	if err != nil || changed < 1 {
		t.Fatalf("delta file: %d clusters changed, err %v", changed, err)
	}
	importBase := func(tb testing.TB, score func(*core.Dataset)) *core.Dataset {
		d := core.NewDataset(core.RemoveTrimmed)
		for _, p := range basePaths {
			importReference(tb, d, p)
			d.Publish()
			score(d)
		}
		return d
	}
	testkit.Differential[heteroResult]{
		Name: "hetero-fused/delta",
		Sequential: func(tb testing.TB) heteroResult {
			d := importBase(tb, func(d *core.Dataset) { referenceHetero(d, 0, 1) })
			importReference(tb, d, deltaPath)
			d.Publish()
			referenceHetero(d, 0, 1)
			return heteroResult{d, saveStore(tb, d, tb.TempDir(), docstore.SaveOpts{})}
		},
		Parallel: func(tb testing.TB, workers int) heteroResult {
			d := importBase(tb, func(d *core.Dataset) { hetero.UpdateParallel(d, workers) })
			dl, err := d.ApplySnapshotDelta(deltaPath, core.DeltaOptions{Workers: workers})
			if err != nil {
				tb.Fatal(err)
			}
			d.Publish()
			hetero.UpdateDelta(d, dl, workers)
			return heteroResult{d, saveStore(tb, d, tb.TempDir(), docstore.SaveOpts{})}
		},
		Compare: compareHetero,
	}.Run(t)
}
