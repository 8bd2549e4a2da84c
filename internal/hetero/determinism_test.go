package hetero

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/simil"
	"repro/internal/voter"
)

// varietyDataset builds a dataset with many distinct attribute values so the
// entropy maps behind DatasetWeights carry enough keys for map iteration
// order to matter (the fixed ROADMAP nondeterminism). Some clusters have two
// versions so pair scores exist.
func varietyDataset(t testing.TB) *core.Dataset {
	t.Helper()
	firsts := []string{"JOHN", "JANE", "ALEJANDRO", "MEI", "PRIYA", "OLU", "SVEN", "AKIRA", "FATIMA", "LARS", "NOOR", "IVAN"}
	lasts := []string{"SMITH", "NGUYEN", "GARCIA", "KOWALSKI", "OKAFOR", "LINDQVIST", "TANAKA", "HASSAN", "PETROV", "MULLER", "DUBOIS", "ROSSI"}
	cities := []string{"DURHAM", "RALEIGH", "CARY", "APEX", "WILSON", "BOONE", "SHELBY", "MONROE", "CLAYTON", "GARNER", "LENOIR", "SYLVA"}
	var recs []voter.Record
	for i := range firsts {
		r := voter.NewRecord()
		r.SetName("ncid", fmt.Sprintf("C%02d", i))
		r.SetName("first_name", firsts[i])
		r.SetName("last_name", lasts[i])
		r.SetName("res_city_desc", cities[i])
		recs = append(recs, r)
		if i%2 == 0 { // a second, slightly differing version
			v := voter.NewRecord()
			v.SetName("ncid", fmt.Sprintf("C%02d", i))
			v.SetName("first_name", firsts[i]+"E")
			v.SetName("last_name", lasts[(i+1)%len(lasts)])
			v.SetName("res_city_desc", cities[i])
			recs = append(recs, v)
		}
	}
	d := core.NewDataset(core.RemoveTrimmed)
	d.ImportSnapshot(voter.Snapshot{Date: "2008-01-01", Records: recs})
	return d
}

// TestParallelScoreHeteroDeterministic is the ROADMAP open item's regression
// test: scoring a fixture twice through freshly built maps must produce the
// exact same bytes. Before the sorted-order entropy accumulation in
// simil.Entropy, the weights (and with them every pair score) could differ
// in the last ulp between runs because map iteration order changed the
// floating-point summation order.
func TestParallelScoreHeteroDeterministic(t *testing.T) {
	collect := func() []uint64 {
		d := varietyDataset(t) // fresh dataset => fresh entropy maps
		UpdateParallel(d, 3)
		var bits []uint64
		for _, w := range DatasetWeights(d, AllColumns()) {
			bits = append(bits, math.Float64bits(w))
		}
		// PairScores streams clusters and indices in deterministic order.
		for _, kind := range []string{core.KindHeteroAll, core.KindHeteroPerson} {
			d.PairScores(kind, func(_ *core.Cluster, _, _ int, sim float64) bool {
				bits = append(bits, math.Float64bits(sim))
				return true
			})
		}
		return bits
	}
	want := collect()
	if len(want) == 0 {
		t.Fatal("fixture produced no scores")
	}
	for run := 0; run < 10; run++ {
		got := collect()
		if len(got) != len(want) {
			t.Fatalf("run %d: %d values, want %d", run, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: value %d = %016x, want %016x — scoring is nondeterministic",
					run, i, got[i], want[i])
			}
		}
	}
}

// TestParallelScoreHeteroScratchMatchesPlain pins the bit-identity of the
// allocation-free scoring path against the plain one, both per value and per
// record pair.
func TestParallelScoreHeteroScratchMatchesPlain(t *testing.T) {
	vals := []string{"", "SMITH", "smith", "SMYTH", "ANH THI", "THI ANH", "CHRISTOPHER LEE", "KRISTOFFER L", "O'BRIEN", "NGUYEN"}
	var sc simil.Scratch
	for _, a := range vals {
		for _, b := range vals {
			want := ValueSim(a, b)
			got := ValueSimInto(a, b, &sc)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("ValueSimInto(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}

	// The fused cluster scorer against the per-pair reference, both kinds.
	d := varietyDataset(t)
	refs := []*Scorer{
		NewScorer(AllColumns(), DatasetWeights(d, AllColumns())),
		NewScorer(PersonColumns(), DatasetWeights(d, PersonColumns())),
	}
	fused := newClusterScorer(newWeighting(d))
	pairs := 0
	d.Clusters(func(c *core.Cluster) bool {
		fused.ScoreCluster(c.Records, 1, func(kind, i, j int, got float64) {
			pairs++
			want := refs[kind].PairSim(c.Records[i].Rec, c.Records[j].Rec)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("fused %s(%d,%d) = %v, want %v (cluster %s)", kinds[kind], i, j, got, want, c.NCID)
			}
		})
		return true
	})
	if pairs == 0 {
		t.Fatal("fixture produced no pairs")
	}
}

// TestParallelScoreHeteroWorkerLadder checks UpdateParallel against the
// sequential Update bit for bit across worker counts, now that every worker
// scores through private scratch buffers.
func TestParallelScoreHeteroWorkerLadder(t *testing.T) {
	ref := varietyDataset(t)
	Update(ref)
	for _, workers := range []int{2, 3, 7} {
		d := varietyDataset(t)
		UpdateParallel(d, workers)
		assertSameScores(t, ref, d, workers)
	}
}

func assertSameScores(t *testing.T, ref, got *core.Dataset, workers int) {
	t.Helper()
	for _, kind := range []string{core.KindHeteroAll, core.KindHeteroPerson} {
		var want []uint64
		ref.PairScores(kind, func(_ *core.Cluster, _, _ int, sim float64) bool {
			want = append(want, math.Float64bits(sim))
			return true
		})
		k := 0
		got.PairScores(kind, func(_ *core.Cluster, i, j int, sim float64) bool {
			if k >= len(want) || math.Float64bits(sim) != want[k] {
				t.Fatalf("workers=%d kind=%s: score %d/%d,%d diverges", workers, kind, k, i, j)
			}
			k++
			return true
		})
		if k != len(want) {
			t.Fatalf("workers=%d kind=%s: %d scores, want %d", workers, kind, k, len(want))
		}
	}
}
