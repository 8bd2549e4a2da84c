package dedup

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// feedBatches sends candidates through a channel in batches of size bs.
func feedBatches(candidates []Pair, bs, buffer int) <-chan []Pair {
	ch := make(chan []Pair, buffer)
	go func() {
		for lo := 0; lo < len(candidates); lo += bs {
			hi := lo + bs
			if hi > len(candidates) {
				hi = len(candidates)
			}
			ch <- append([]Pair(nil), candidates[lo:hi]...)
		}
		close(ch)
	}()
	return ch
}

// TestStreamCurveEquivalence is the streaming consumer's bit-identity
// contract: for every measure and worker count, the curve computed from
// batched candidates equals the sequential reference exactly.
// `make race` runs it under the race detector.
func TestStreamCurveEquivalence(t *testing.T) {
	ds := toyDataset(t, 40, []int{1, 2, 3}, 0.4)
	candidates := allPairs(len(ds.Records))
	if len(candidates) == 0 {
		t.Fatal("no candidates")
	}
	for _, m := range Measures {
		want := EvaluateCandidates(ds, m, candidates, 50)
		for _, workers := range equivWorkerCounts() {
			got := EvaluateCandidatesStream(ds, m, feedBatches(candidates, 37, 2), 50,
				ScoreOpts{Workers: workers})
			requireCurvesIdentical(t, string(m)+"/stream/workers="+itoa(workers), want, got)
		}
	}
}

// TestStreamBatchShapeIrrelevant: the curve cannot depend on how the pair
// stream is chopped into batches.
func TestStreamBatchShapeIrrelevant(t *testing.T) {
	ds := toyDataset(t, 25, []int{2, 3}, 0.5)
	candidates := allPairs(len(ds.Records))
	want := EvaluateCandidates(ds, MeasureJaroWinkler, candidates, 25)
	for _, bs := range []int{1, 7, len(candidates), len(candidates) * 2} {
		got := EvaluateCandidatesStream(ds, MeasureJaroWinkler, feedBatches(candidates, bs, 0), 25,
			ScoreOpts{Workers: 3})
		requireCurvesIdentical(t, "batch="+itoa(bs), want, got)
	}
}

// TestStreamEmpty: a channel closed without batches yields the same curve
// as an empty candidate slice (precision 1 everywhere).
func TestStreamEmpty(t *testing.T) {
	ds := toyDataset(t, 5, []int{1}, 0)
	want := EvaluateCandidates(ds, MeasureMELev, nil, 10)
	got := EvaluateCandidatesStream(ds, MeasureMELev, feedBatches(nil, 8, 0), 10,
		ScoreOpts{Workers: 2})
	requireCurvesIdentical(t, "empty stream", want, got)
}

// TestStreamRecycleAndStages: the Recycle hook sees every batch exactly
// once, and OnStage reports the three pipeline stages in order.
func TestStreamRecycleAndStages(t *testing.T) {
	ds := toyDataset(t, 20, []int{2}, 0.3)
	candidates := allPairs(len(ds.Records))

	var mu sync.Mutex
	recycled := 0
	var stages []string
	got := EvaluateCandidatesStream(ds, MeasureTrigramJaccard, feedBatches(candidates, 16, 1), 20,
		ScoreOpts{
			Workers: 4,
			Recycle: func(batch []Pair) {
				mu.Lock()
				recycled += len(batch)
				mu.Unlock()
			},
			OnStage: func(stage string, d time.Duration) {
				if d < 0 {
					t.Errorf("stage %s: negative duration %v", stage, d)
				}
				stages = append(stages, stage)
			},
		})
	if recycled != len(candidates) {
		t.Errorf("recycled %d pairs, want %d", recycled, len(candidates))
	}
	wantStages := []string{"preprocessing", "scoring", "merge"}
	if len(stages) != len(wantStages) {
		t.Fatalf("stages %v, want %v", stages, wantStages)
	}
	for i := range wantStages {
		if stages[i] != wantStages[i] {
			t.Fatalf("stages %v, want %v", stages, wantStages)
		}
	}
	want := EvaluateCandidates(ds, MeasureTrigramJaccard, candidates, 20)
	requireCurvesIdentical(t, "recycle run", want, got)
}

// TestStreamObserverCounters: the streaming path reports the score_*
// family plus the dedup_stream_* extension.
func TestStreamObserverCounters(t *testing.T) {
	ds := toyDataset(t, 30, []int{2, 3}, 0.2)
	candidates := allPairs(len(ds.Records))
	m := obs.NewMetrics()
	EvaluateCandidatesStream(ds, MeasureTrigramJaccard, feedBatches(candidates, 64, 2), 20,
		ScoreOpts{Workers: 2, Observer: m})
	if got := m.Counter("score_pairs_scored"); got != int64(len(candidates)) {
		t.Errorf("score_pairs_scored = %d, want %d", got, len(candidates))
	}
	if got := m.Counter("dedup_stream_pairs"); got != int64(len(candidates)) {
		t.Errorf("dedup_stream_pairs = %d, want %d", got, len(candidates))
	}
	wantBatches := int64((len(candidates) + 63) / 64)
	if got := m.Counter("dedup_stream_batches"); got != wantBatches {
		t.Errorf("dedup_stream_batches = %d, want %d", got, wantBatches)
	}
	if m.Counter("score_memo_hits")+m.Counter("score_memo_misses") == 0 {
		t.Error("no memo traffic recorded on the streaming path")
	}
}

// TestThresholdBucketMatchesSweepSearch: the bucket boundary must evaluate
// the exact float comparison sweepCurve's sort.Search performs, including
// similarities that land exactly on a grid threshold.
func TestThresholdBucketMatchesSweepSearch(t *testing.T) {
	const steps = 100
	sims := []float64{0, 1, 0.5, 0.25, 1.0 / 3.0, 0.009999999999999999, 0.01, 0.99, 0.7000000000000001}
	for s := 0; s <= steps; s++ {
		sims = append(sims, float64(s)/float64(steps))
	}
	for _, sim := range sims {
		b := thresholdBucket(sim, steps)
		// Reference: count thresholds t_s with sim >= t_s, the per-pair
		// contribution sweepCurve's n(t) counts.
		want := 0
		for s := 0; s <= steps; s++ {
			if !(float64(s)/float64(steps) > sim) {
				want++
			}
		}
		if b != want {
			t.Errorf("sim=%v: bucket %d, want %d", sim, b, want)
		}
	}
}

// TestMemoBoundedCapUnderStreaming is the bounded-memo regression: memos
// far smaller than the distinct value-pair set must count the overflow as
// skips and leave the streamed curve untouched.
func TestMemoBoundedCapUnderStreaming(t *testing.T) {
	ds := toyDataset(t, 60, []int{2, 3}, 0.6)
	candidates := allPairs(len(ds.Records))
	want := EvaluateCandidates(ds, MeasureMELev, candidates, 25)

	const memoCap = 8 // two entries per worker
	m := obs.NewMetrics()
	got := EvaluateCandidatesStream(ds, MeasureMELev, feedBatches(candidates, 32, 2), 25,
		ScoreOpts{Workers: 4, MemoCap: memoCap, Observer: m})
	requireCurvesIdentical(t, "tiny memo stream", want, got)

	if m.Counter("score_memo_skips") == 0 {
		t.Error("no skips recorded with a memo smaller than the value-pair set")
	}
	if m.Counter("score_memo_misses") == 0 {
		t.Error("no misses recorded")
	}
	// Every computed similarity was either stored (bounded by the cap) or
	// skipped; hits can only come from stored entries.
	if m.Counter("score_memo_skips") > m.Counter("score_memo_misses") {
		t.Errorf("skips %d > misses %d", m.Counter("score_memo_skips"), m.Counter("score_memo_misses"))
	}
}

// TestMemoPerWorkerCap: MemoCap is a total split across the workers. At one
// entry per worker and with caching disabled, each worker's memo stays
// within its cap, the overflow is counted as skips, and every score and
// curve equals the plain matcher's.
func TestMemoPerWorkerCap(t *testing.T) {
	for _, c := range []struct{ total, workers, want int }{
		{4, 4, 1}, {3, 4, 1}, {1, 1, 1}, {defaultMemoCap, 2, defaultMemoCap / 2}, {-1, 3, -1},
	} {
		if got := memoCapPerWorker(c.total, c.workers); got != c.want {
			t.Errorf("memoCapPerWorker(%d, %d) = %d, want %d", c.total, c.workers, got, c.want)
		}
	}

	ds := toyDataset(t, 30, []int{2, 3}, 0.6)
	candidates := allPairs(len(ds.Records))
	for _, m := range Measures {
		mt := newMatcher(ds, m)
		want := EvaluateCandidates(ds, m, candidates, 25)
		for _, memoCap := range []int{1, -1} {
			label := string(m) + "/cap=" + strconv.Itoa(memoCap)
			s := &scorer{e: newEngine(ds, m, ScoreOpts{}), memo: memo{m: map[uint64]float64{}, cap: memoCap}}
			for _, p := range candidates {
				if got, want := s.recordSim(p.I, p.J), mt.recordSim(p.I, p.J); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: pair %v scores %v, want %v", label, p, got, want)
				}
			}
			if len(s.memo.m) > max(memoCap, 0) {
				t.Errorf("%s: memo holds %d entries", label, len(s.memo.m))
			}
			if s.memo.skips == 0 || s.memo.skips < s.memo.misses-1 {
				t.Errorf("%s: %d skips of %d misses, want all but at most one skipped", label, s.memo.skips, s.memo.misses)
			}
			if memoCap < 0 && s.memo.hits != 0 {
				t.Errorf("%s: %d hits with caching disabled", label, s.memo.hits)
			}

			for _, workers := range []int{1, 2, 7} {
				total := memoCap * workers
				obsm := obs.NewMetrics()
				got := EvaluateCandidatesParallel(ds, m, candidates, 25, ScoreOpts{Workers: workers, MemoCap: total, Observer: obsm})
				requireCurvesIdentical(t, label+"/workers="+strconv.Itoa(workers), want, got)
				if obsm.Counter("score_memo_skips") == 0 {
					t.Errorf("%s/workers=%d: no skips counted", label, workers)
				}
			}
		}
	}
}

// TestCurveFromCountsMatchesSweep cross-checks the suffix-sum builder
// against sweepCurve on synthetic similarity multisets, independent of any
// matcher.
func TestCurveFromCountsMatchesSweep(t *testing.T) {
	ds := toyDataset(t, 10, []int{2}, 0.2)
	candidates := allPairs(len(ds.Records))
	sims := make([]float64, len(candidates))
	for k := range sims {
		// A spread of exact-grid and off-grid values.
		switch k % 4 {
		case 0:
			sims[k] = float64(k%21) / 20
		case 1:
			sims[k] = 1.0 / float64(k+2)
		case 2:
			sims[k] = 0
		default:
			sims[k] = 1
		}
	}
	const steps = 20
	want := sweepCurve(ds, MeasureMELev, candidates, sims, steps)
	counts := make([]int64, steps+2)
	dups := make([]int64, steps+2)
	for k, p := range candidates {
		b := thresholdBucket(sims[k], steps)
		counts[b]++
		if ds.IsDuplicate(p.I, p.J) {
			dups[b]++
		}
	}
	got := curveFromCounts(ds, MeasureMELev, counts, dups, steps)
	requireCurvesIdentical(t, "curveFromCounts", want, got)
	if !sort.SliceIsSorted(got.Points, func(a, b int) bool {
		return got.Points[a].Threshold < got.Points[b].Threshold
	}) {
		t.Error("points not in ascending threshold order")
	}
}
