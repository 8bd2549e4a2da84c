package testkit_test

import (
	"reflect"
	"testing"

	"repro/internal/blocking"
	"repro/internal/dedup"
	"repro/internal/testkit"
)

// The streaming end-to-end oracle: the dedup pipeline —
// blocking.GenerateStream feeding dedup.EvaluateCandidatesStream through a
// bounded channel — pinned to the independent sequential references
// (blocking.GenerateSeq + the plain-Matcher dedup.EvaluateCandidates,
// which share no code with the subject) over the shared seeded corpus,
// across the worker ladder, under -race (`make conformance`, and `make
// race` via `make ci`). Compares the quality curves of several measures
// AND the blocking run stats: the pipeline promises bit-identity end to
// end, not just matching best-F1 summaries.

// streamResult is what end-to-end equivalence means: every threshold-sweep
// curve plus the blocking counters.
type streamResult struct {
	Curves map[dedup.Measure]dedup.Curve
	Stats  blocking.Stats
}

var streamMeasures = []dedup.Measure{
	dedup.MeasureMELev,
	dedup.MeasureJaroWinkler,
	dedup.MeasureTrigramJaccard,
}

func TestConformanceStreamingDedup(t *testing.T) {
	corpus := testkit.Corpus{Seed: 53}
	ds := corpus.DedupDataset(t, 110, 4, 0, 180)
	if len(ds.Records) == 0 {
		t.Fatal("seeded corpus produced an empty detection dataset")
	}
	multi, err := blocking.ParsePasses(ds, "last_name+zip_code, soundex(last_name)+county_desc")
	if err != nil {
		t.Fatal(err)
	}
	cfg := blocking.Config{Passes: multi, Window: 12}
	const steps = 60

	testkit.Differential[streamResult]{
		Name: "streaming-dedup/fused-pipeline",
		Sequential: func(tb testing.TB) streamResult {
			pairs, stats := blocking.GenerateSeq(ds, cfg)
			res := streamResult{Curves: map[dedup.Measure]dedup.Curve{}, Stats: stats}
			for _, m := range streamMeasures {
				res.Curves[m] = dedup.EvaluateCandidates(ds, m, pairs, steps)
			}
			return res
		},
		Parallel: func(tb testing.TB, workers int) streamResult {
			c := cfg
			c.Workers = workers
			res := streamResult{Curves: map[dedup.Measure]dedup.Curve{}}
			// Odd batch size and a small buffer so batch boundaries never
			// line up with worker chunking.
			sopts := blocking.StreamOpts{BatchSize: 193, Buffer: 2}
			for _, m := range streamMeasures {
				s := blocking.GenerateStream(ds, c, sopts)
				res.Curves[m] = dedup.EvaluateCandidatesStream(ds, m, s.C, steps,
					dedup.ScoreOpts{Workers: workers, Recycle: s.Recycle})
				res.Stats = s.Stats()
			}
			return res
		},
		Compare: func(tb testing.TB, want, got streamResult) {
			if want.Stats.Emitted <= want.Stats.Unique {
				tb.Fatalf("passes never overlap (emitted %d, unique %d): the merge's dedupe goes unexercised",
					want.Stats.Emitted, want.Stats.Unique)
			}
			for _, m := range streamMeasures {
				if !reflect.DeepEqual(want.Curves[m], got.Curves[m]) {
					tb.Fatalf("streamed %s curve diverges from the sequential reference", m)
				}
			}
			if !reflect.DeepEqual(want.Stats, got.Stats) {
				tb.Fatalf("streamed blocking stats diverge:\n got %+v\nwant %+v", got.Stats, want.Stats)
			}
		},
	}.Run(t)
}
