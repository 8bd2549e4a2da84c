// The engine's consumer: scoring candidate batches into a threshold-sweep
// curve without holding the pairs. A sweep over a candidate slice needs the
// slice and a float64 similarity per pair in memory before it can sort; at
// full-corpus scale that second copy of the pair set is as heavy as the
// blocking union itself. EvaluateCandidatesStream consumes candidate
// batches from a channel (the blocking layer's GenerateStream, or the
// slice adapter EvaluateCandidatesParallel) and keeps only O(steps)
// integers per worker:
//
// sweepCurve's output depends on the candidates only through, per
// threshold t, the counts n(t) = |{pairs: sim >= t}| and
// tp(t) = |{duplicate pairs: sim >= t}|. The thresholds form the fixed
// grid t_s = s/steps, so each scored pair contributes to exactly the
// prefix s = 0..smax, where smax is the largest s with t_s <= sim —
// found by the same sort.Search float comparison sweepCurve performs.
// Workers bucket each pair at smax+1 into private count arrays, the
// arrays merge by integer addition (commutative — order cannot matter),
// and a suffix sum yields the exact (tp, n) integers sweepCurve would
// have computed. Both then share point(), so every float of the Curve is
// identical to the sorting reference (EvaluateCandidates) for any worker
// count — enforced by the package tests and the testkit oracles
// (`make conformance`).

package dedup

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/counter"
)

// EvaluateCandidatesStream is the scoring engine: batches of sorted,
// deduplicated pairs arrive on the channel (closed by the producer after
// the last batch), workers score them with the engine's scratch kernels
// and memos as they arrive, and the returned Curve is bit-identical
// to EvaluateCandidates over the same pairs — without the candidate slice
// or the similarity slice ever existing. opts.Recycle, when set, receives
// each fully scored batch. steps must be at least 1.
func EvaluateCandidatesStream(ds *Dataset, m Measure, batches <-chan []Pair, steps int, opts ScoreOpts) Curve {
	if steps < 1 {
		panic(fmt.Sprintf("dedup: EvaluateCandidatesStream: steps = %d, need at least 1", steps))
	}
	start := time.Now()
	eng := newEngine(ds, m, opts)
	opts.stage("preprocessing", start)
	start = time.Now()
	counts, dups, pairs, nbatches := eng.scoreStream(batches, steps, opts.workersOrDefault(), opts.Recycle)
	opts.stage("scoring", start)
	start = time.Now()
	curve := curveFromCounts(ds, m, counts, dups, steps)
	opts.stage("merge", start)
	counter.Add(eng.obs, "dedup_stream_batches", nbatches)
	counter.Add(eng.obs, "dedup_stream_pairs", pairs)
	return curve
}

// thresholdBucket places one similarity on the sweep grid: the smallest
// s with s/steps > sim, i.e. one past the highest threshold the pair
// still clears. The predicate is the exact float comparison sweepCurve's
// sort.Search evaluates, so bucket boundaries agree bit for bit.
func thresholdBucket(sim float64, steps int) int {
	return sort.Search(steps+1, func(s int) bool { return float64(s)/float64(steps) > sim })
}

// scoreStream drains the batch channel across workers. Each worker keeps
// private count arrays indexed by threshold bucket and folds them into the
// shared totals once at the end; the totals are sums of per-pair integer
// contributions, so they are independent of batch distribution and
// scheduling.
func (e *engine) scoreStream(batches <-chan []Pair, steps, workers int, recycle func([]Pair)) (counts, dups []int64, pairs, nbatches int64) {
	counts = make([]int64, steps+2)
	dups = make([]int64, steps+2)
	memoCap := memoCapPerWorker(e.memoCap, workers)

	var mu sync.Mutex
	work := func() {
		s := &scorer{e: e, memo: memo{m: map[uint64]float64{}, cap: memoCap}}
		lc := make([]int64, steps+2)
		ld := make([]int64, steps+2)
		var lp, lb int64
		for batch := range batches {
			lb++
			lp += int64(len(batch))
			for _, p := range batch {
				b := thresholdBucket(s.recordSim(p.I, p.J), steps)
				lc[b]++
				if e.ds.IsDuplicate(p.I, p.J) {
					ld[b]++
				}
			}
			if recycle != nil {
				recycle(batch)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		for i := range lc {
			counts[i] += lc[i]
			dups[i] += ld[i]
		}
		pairs += lp
		nbatches += lb
		e.hits += s.memo.hits
		e.misses += s.memo.misses
		e.skips += s.memo.skips
	}

	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	e.report(pairs)
	return counts, dups, pairs, nbatches
}

// curveFromCounts builds the Curve from the bucketed counts: a suffix sum
// over buckets yields each threshold's (tp, n), which flow through the
// same point() as sweepCurve — identical integers in, identical floats
// out. Points come out in ascending threshold order directly.
func curveFromCounts(ds *Dataset, m Measure, counts, dups []int64, steps int) Curve {
	totalTrue := ds.NumTruePairs()
	curve := Curve{Dataset: ds.Name, Measure: m, Points: make([]Point, steps+1)}
	var n, tp int64
	for s := steps; s >= 0; s-- {
		n += counts[s+1]
		tp += dups[s+1]
		curve.Points[s] = point(float64(s)/float64(steps), int(tp), int(n), totalTrue)
	}
	return curve
}
