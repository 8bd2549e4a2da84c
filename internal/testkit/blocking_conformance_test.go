package testkit_test

import (
	"reflect"
	"testing"

	"repro/internal/blocking"
	"repro/internal/dedup"
	"repro/internal/testkit"
)

// The blocking differential oracle: every blocker — multi-pass SNM,
// trigram banding, and their deduplicated union — drained from the stream
// by blocking.Generate and pinned to the sequential reference
// blocking.GenerateSeq over the shared seeded corpus, across the worker
// ladder, under -race (`make conformance`, and `make race` via `make ci`).
// Compares the full pair set AND the run stats: both are contracts of
// Generate.

// blockingResult is what blocking equivalence means: the exact sorted
// candidate pair set plus every per-pass and bucket counter.
type blockingResult struct {
	Pairs []dedup.Pair
	Stats blocking.Stats
}

func blockingConfigs(ds *dedup.Dataset) map[string]blocking.Config {
	multi, err := blocking.ParsePasses(ds, "last_name+zip_code, first_name+age, soundex(last_name)+county_desc")
	if err != nil {
		panic(err)
	}
	return map[string]blocking.Config{
		"snm-entropy": {Passes: blocking.EntropyPasses(ds, 5), Window: 10},
		"snm-keyed":   {Passes: multi, Window: 10},
		"trigram":     {Trigram: &blocking.TrigramConfig{Bands: 8, Rows: 3}},
		"union": {
			Passes:  multi,
			Window:  10,
			Trigram: &blocking.TrigramConfig{Bands: 8, Rows: 3, MaxBucket: 48},
		},
	}
}

func TestConformanceBlocking(t *testing.T) {
	corpus := testkit.Corpus{Seed: 47}
	ds := corpus.DedupDataset(t, 120, 4, 0, 200)
	if len(ds.Records) == 0 {
		t.Fatal("seeded corpus produced an empty detection dataset")
	}
	for name, cfg := range blockingConfigs(ds) {
		cfg := cfg
		testkit.Differential[blockingResult]{
			Name: "blocking/" + name,
			Sequential: func(tb testing.TB) blockingResult {
				pairs, stats := blocking.GenerateSeq(ds, cfg)
				return blockingResult{pairs, stats}
			},
			Parallel: func(tb testing.TB, workers int) blockingResult {
				c := cfg
				c.Workers = workers
				pairs, stats := blocking.Generate(ds, c)
				return blockingResult{pairs, stats}
			},
			Compare: func(tb testing.TB, want, got blockingResult) {
				if !reflect.DeepEqual(want.Pairs, got.Pairs) {
					tb.Fatalf("parallel candidate set diverges from sequential reference: %d vs %d pairs",
						len(got.Pairs), len(want.Pairs))
				}
				if !reflect.DeepEqual(want.Stats, got.Stats) {
					tb.Fatalf("parallel stats diverge:\n got %+v\nwant %+v", got.Stats, want.Stats)
				}
			},
		}.Run(t)
	}
}
