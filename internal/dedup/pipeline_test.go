package dedup_test

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/corrupt"
	. "repro/internal/dedup"
)

// The tests of this file run the pipeline the way every production caller
// composes it: blocking.Generate over entropy passes feeding the engine.

// candidates blocks ds with one SNM pass per each of its k most unique
// attributes.
func candidates(ds *Dataset, k, window int) []Pair {
	pairs, _ := blocking.Generate(ds, blocking.Config{Passes: blocking.EntropyPasses(ds, k), Window: window})
	return pairs
}

func evaluate(ds *Dataset, m Measure, k, window, steps int) Curve {
	return EvaluateCandidatesParallel(ds, m, candidates(ds, k, window), steps, ScoreOpts{})
}

func TestSNMFindsAllClusteredPairs(t *testing.T) {
	ds := ToyDataset(t, 30, []int{2, 3}, 0.2)
	cands := candidates(ds, 3, 20)
	if rec := blocking.Recall(ds, cands); rec < 0.95 {
		t.Errorf("blocking recall = %v, want >= 0.95", rec)
	}
	// No duplicates in the candidate list, all i < j.
	seen := map[Pair]bool{}
	for _, p := range cands {
		if p.I >= p.J {
			t.Fatalf("unordered pair %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
}

func TestSNMWindowBoundsCandidates(t *testing.T) {
	ds := ToyDataset(t, 50, []int{2}, 0.2)
	small := snm(ds, []int{0}, 5)
	big := snm(ds, []int{0}, 50)
	if len(small) >= len(big) {
		t.Errorf("window 5 produced %d pairs, window 50 %d", len(small), len(big))
	}
	n := ds.NumRecords()
	maxSmall := n * 4 // window-1 successors each
	if len(small) > maxSmall {
		t.Errorf("window 5 produced %d pairs, cap %d", len(small), maxSmall)
	}
}

func TestEvaluateCleanDatasetNearPerfect(t *testing.T) {
	ds := ToyDataset(t, 40, []int{2, 3}, 0.15)
	for _, m := range Measures {
		f1, th := evaluate(ds, m, 3, 20, 50).BestF1()
		if f1 < 0.9 {
			t.Errorf("%s: best F1 = %v @%v, want >= 0.9 on a clean dataset", m, f1, th)
		}
	}
}

func TestEvaluateCurveShape(t *testing.T) {
	ds := ToyDataset(t, 30, []int{2}, 0.5)
	curve := evaluate(ds, MeasureJaroWinkler, 3, 20, 20)
	if len(curve.Points) != 21 {
		t.Fatalf("points = %d", len(curve.Points))
	}
	// Threshold 0 classifies every candidate pair: recall is maximal.
	p0 := curve.Points[0]
	pLast := curve.Points[len(curve.Points)-1]
	if p0.Recall < pLast.Recall {
		t.Errorf("recall should not increase with threshold: %v -> %v", p0.Recall, pLast.Recall)
	}
	// Monotone recall along the curve.
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].Recall > curve.Points[i-1].Recall+1e-12 {
			t.Fatalf("recall increased at threshold %v", curve.Points[i].Threshold)
		}
	}
	// All metrics in [0, 1].
	for _, p := range curve.Points {
		if p.Precision < 0 || p.Precision > 1 || p.Recall < 0 || p.Recall > 1 || p.F1 < 0 || p.F1 > 1 {
			t.Fatalf("metric out of range at %v: %+v", p.Threshold, p)
		}
	}
}

// TestEvaluateAllCoversMeasures: one candidate set scored under each of the
// paper's three measures yields one curve per measure, labeled with the
// dataset and the measure.
func TestEvaluateAllCoversMeasures(t *testing.T) {
	ds := ToyDataset(t, 10, []int{2}, 0.3)
	cands := candidates(ds, 2, 10)
	names := map[Measure]bool{}
	for _, m := range Measures {
		c := EvaluateCandidatesParallel(ds, m, cands, 10, ScoreOpts{})
		names[c.Measure] = true
		if c.Dataset != "toy" {
			t.Errorf("curve dataset = %s", c.Dataset)
		}
	}
	if len(names) != 3 {
		t.Errorf("measures = %v", names)
	}
}

func TestDirtierDataScoresWorse(t *testing.T) {
	clean := ToyDataset(t, 40, []int{2, 3}, 0.1)
	dirty := ToyDataset(t, 40, []int{2, 3}, 0.95)
	// Make the dirty dataset truly dirty: corrupt aggressively.
	rng := rand.New(rand.NewSource(9))
	for i := range dirty.Records {
		if i > 0 && dirty.ClusterOf[i] == dirty.ClusterOf[i-1] {
			for c := 0; c < 3; c++ {
				v := dirty.Records[i][c]
				for k := 0; k < 3; k++ {
					v = corrupt.Typo(rng, v)
				}
				dirty.Records[i][c] = strings.TrimSpace(v)
			}
		}
	}
	cleanF1, _ := evaluate(clean, MeasureMELev, 3, 20, 50).BestF1()
	dirtyF1, _ := evaluate(dirty, MeasureMELev, 3, 20, 50).BestF1()
	if dirtyF1 >= cleanF1 {
		t.Errorf("dirty F1 (%v) should be below clean F1 (%v)", dirtyF1, cleanF1)
	}
}

// TestEvaluateAllMatchesSequential runs the streamed composition — what
// ncdedup runs, GenerateStream feeding EvaluateCandidatesStream — for the
// paper's three measures against the two independent references composed
// the same way: GenerateSeq feeding EvaluateCandidates.
func TestEvaluateAllMatchesSequential(t *testing.T) {
	ds := ToyDataset(t, 20, []int{2}, 0.3)
	cfg := blocking.Config{Passes: blocking.EntropyPasses(ds, 2), Window: 10}
	ref, _ := blocking.GenerateSeq(ds, cfg)
	for _, m := range Measures {
		s := blocking.GenerateStream(ds, cfg, blocking.StreamOpts{})
		got := EvaluateCandidatesStream(ds, m, s.C, 20, ScoreOpts{Recycle: s.Recycle})
		RequireCurvesIdentical(t, string(m), EvaluateCandidates(ds, m, ref, 20), got)
	}
}

// TestEvaluateMatchesSequential does the same for the slice composition
// (Generate feeding EvaluateCandidatesParallel) under every measure.
func TestEvaluateMatchesSequential(t *testing.T) {
	ds := ToyDataset(t, 25, []int{1, 2, 3}, 0.4)
	ref, _ := blocking.GenerateSeq(ds, blocking.Config{Passes: blocking.EntropyPasses(ds, 3), Window: 12})
	for _, m := range Measures {
		RequireCurvesIdentical(t, string(m), EvaluateCandidates(ds, m, ref, 30), evaluate(ds, m, 3, 12, 30))
	}
}

func TestEvaluateFellegiSunterEndToEnd(t *testing.T) {
	ds := ToyDataset(t, 100, []int{2, 3}, 0.3)
	f1, score := EvaluateFellegiSunter(ds, func(d *Dataset) []Pair { return candidates(d, 3, 20) }, 0.9, 0.5, 3)
	if f1 < 0.8 {
		t.Errorf("validation F1 = %v, want >= 0.8 on clean data", f1)
	}
	if math.IsNaN(score) || math.IsInf(score, 0) {
		t.Errorf("decision score = %v", score)
	}
}

func TestSelectThresholdGeneralizes(t *testing.T) {
	ds := ToyDataset(t, 80, []int{2, 3}, 0.25)
	sel := SelectThreshold(ds, MeasureMELev, func(d *Dataset) []Pair { return candidates(d, 3, 20) }, 50, 0.5, 7)
	if sel.Threshold <= 0 || sel.Threshold >= 1 {
		t.Errorf("threshold = %v", sel.Threshold)
	}
	if sel.TrainF1 < 0.85 {
		t.Errorf("train F1 = %v", sel.TrainF1)
	}
	// On homogeneous data the trained threshold must transfer.
	if sel.ValidateF1 < sel.TrainF1-0.2 {
		t.Errorf("validation F1 %v collapsed vs train %v", sel.ValidateF1, sel.TrainF1)
	}
}
