package plaus

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/voter"
)

// TestParallelScorePlausScratchMatchesPlain pins the bit-identity of the
// allocation-free plausibility scorer against PairScore on the Figure 3
// fixtures, in both orientations.
func TestParallelScorePlausScratchMatchesPlain(t *testing.T) {
	scorer := newPairScorer()
	recs := []voter.Record{r1, r2, r3, r4, r5}
	for _, a := range recs {
		for _, b := range recs {
			want := PairScore(a, b)
			got := scorer(a, b)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("scratch scorer = %v, want %v", got, want)
			}
		}
	}
}

// scoreDataset builds a dataset of the Figure 3 records as one cluster so
// UpdateParallel has pairs to score.
func scoreDataset(t testing.TB) *core.Dataset {
	t.Helper()
	d := core.NewDataset(core.RemoveTrimmed)
	d.ImportSnapshot(voter.Snapshot{Date: "2012-01-01", Records: []voter.Record{r1, r2, r3, r4, r5}})
	return d
}

// TestParallelScorePlausWorkerLadder checks UpdateParallel against the
// sequential Update bit for bit across worker counts.
func TestParallelScorePlausWorkerLadder(t *testing.T) {
	ref := scoreDataset(t)
	Update(ref)
	var want []uint64
	ref.PairScores(core.KindPlausibility, func(_ *core.Cluster, _, _ int, sim float64) bool {
		want = append(want, math.Float64bits(sim))
		return true
	})
	if len(want) == 0 {
		t.Fatal("no pair scores in fixture")
	}
	for _, workers := range []int{2, 3, 7} {
		d := scoreDataset(t)
		UpdateParallel(d, workers)
		k := 0
		d.PairScores(core.KindPlausibility, func(_ *core.Cluster, i, j int, sim float64) bool {
			if k >= len(want) || math.Float64bits(sim) != want[k] {
				t.Fatalf("workers=%d: score %d (%d,%d) diverges", workers, k, i, j)
			}
			k++
			return true
		})
		if k != len(want) {
			t.Fatalf("workers=%d: %d scores, want %d", workers, k, len(want))
		}
	}
}

func BenchmarkPairScoreScratch(b *testing.B) {
	scorer := newPairScorer()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scorer(r2, r3)
	}
}
