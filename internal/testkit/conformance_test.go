package testkit_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/docstore"
	"repro/internal/hetero"
	"repro/internal/plaus"
	"repro/internal/testkit"
	"repro/internal/voter"
)

// This file is the unified conformance suite: the three pipeline stages —
// snapshot ingest, pair scoring, docstore persistence — each run through
// the same testkit.Differential runner against the same seeded corpus.
// `make conformance` executes it under the race detector.

// importReference imports one snapshot file the way every ingest oracle is
// judged: voter.ReadSnapshotFile (StreamTSV) into memory, then
// ImportSnapshot. It shares no reader code with core's block loop.
func importReference(tb testing.TB, d *core.Dataset, path string) core.ImportStats {
	tb.Helper()
	snap, err := voter.ReadSnapshotFile(path)
	if err != nil {
		tb.Fatalf("reference import %s: %v", path, err)
	}
	return d.ImportSnapshot(snap)
}

// ingestResult is what ingest equivalence means: identical per-file import
// statistics and an identical dataset (clusters, order, hashes, derived
// tables — reflect.DeepEqual sees every unexported field).
type ingestResult struct {
	Stats   []core.ImportStats
	Dataset *core.Dataset
}

func TestConformanceIngest(t *testing.T) {
	corpus := testkit.Corpus{Seed: 42}
	paths := corpus.SnapshotFiles(t, 150, 4)
	for _, mode := range []core.RemovalMode{core.RemoveNone, core.RemoveTrimmed} {
		mode := mode
		testkit.Differential[ingestResult]{
			Name: "ingest/" + mode.String(),
			Sequential: func(tb testing.TB) ingestResult {
				d := core.NewDataset(mode)
				var stats []core.ImportStats
				for _, p := range paths {
					stats = append(stats, importReference(tb, d, p))
				}
				d.Publish()
				return ingestResult{stats, d}
			},
			Parallel: func(tb testing.TB, workers int) ingestResult {
				d := core.NewDataset(mode)
				var stats []core.ImportStats
				for _, p := range paths {
					// The tiny chunk size forces many blocks per file so
					// block reordering is actually exercised.
					st, err := d.ImportSnapshotFileParallelOpts(p, core.IngestOptions{Workers: workers, ChunkBytes: 1 << 12})
					if err != nil {
						tb.Fatalf("parallel import %s: %v", p, err)
					}
					stats = append(stats, st)
				}
				d.Publish()
				return ingestResult{stats, d}
			},
		}.Run(t)
	}
}

// requireCurvesIdentical compares evaluation curves at float-bit level: the
// sequential-vs-parallel contract is exact equality, not tolerance.
func requireCurvesIdentical(tb testing.TB, want, got dedup.Curve) {
	tb.Helper()
	if got.Dataset != want.Dataset || got.Measure != want.Measure || len(got.Points) != len(want.Points) {
		tb.Fatalf("curve shape differs: %s/%s %d points vs %s/%s %d points",
			got.Dataset, got.Measure, len(got.Points), want.Dataset, want.Measure, len(want.Points))
	}
	for i := range want.Points {
		w, g := want.Points[i], got.Points[i]
		for _, pair := range [][2]float64{
			{w.Threshold, g.Threshold}, {w.Precision, g.Precision}, {w.Recall, g.Recall}, {w.F1, g.F1},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				tb.Fatalf("curve %s point %d differs: %+v vs %+v", want.Measure, i, g, w)
			}
		}
	}
}

func TestConformanceScoringCurves(t *testing.T) {
	corpus := testkit.Corpus{Seed: 7}
	ds := corpus.DedupDataset(t, 120, 3, 80, 40)
	if ds.NumRecords() == 0 {
		t.Fatal("corpus produced an empty dedup dataset")
	}
	candidates, _ := blocking.Generate(ds, blocking.Config{Passes: blocking.EntropyPasses(ds, 3), Window: 20})
	for _, m := range dedup.Measures {
		m := m
		testkit.Differential[dedup.Curve]{
			Name: "score/" + string(m),
			Sequential: func(tb testing.TB) dedup.Curve {
				return dedup.EvaluateCandidates(ds, m, candidates, 50)
			},
			Parallel: func(tb testing.TB, workers int) dedup.Curve {
				return dedup.EvaluateCandidatesParallel(ds, m, candidates, 50, dedup.ScoreOpts{Workers: workers})
			},
			Compare: func(tb testing.TB, want, got dedup.Curve) {
				requireCurvesIdentical(tb, want, got)
			},
		}.Run(t)
	}
}

// scoreFingerprint extracts every stored pair score of one kind, keyed by
// cluster and pair, so two datasets can be compared after UpdateScores.
func scoreFingerprint(d *core.Dataset, kind string) map[string]float64 {
	fp := map[string]float64{}
	for _, id := range d.NCIDs() {
		c := d.Cluster(id)
		for i := 1; i < len(c.Records); i++ {
			for j := 0; j < i; j++ {
				if s, ok := c.PairScore(kind, i, j); ok {
					fp[fmt.Sprintf("%s/%d/%d", id, i, j)] = s
				}
			}
		}
	}
	return fp
}

func TestConformanceClusterScoring(t *testing.T) {
	corpus := testkit.Corpus{Seed: 11}
	testkit.Differential[map[string]float64]{
		Name: "update-scores/" + core.KindPlausibility,
		Sequential: func(tb testing.TB) map[string]float64 {
			d := corpus.Dataset(tb, 100, 3)
			d.UpdateScores(func() core.ClusterScorer {
				return core.Pairwise(core.KindPlausibility, plaus.PairScore)
			}, 1, nil)
			return scoreFingerprint(d, core.KindPlausibility)
		},
		Parallel: func(tb testing.TB, workers int) map[string]float64 {
			d := corpus.Dataset(tb, 100, 3)
			d.UpdateScores(plaus.NewScorer, workers, nil)
			return scoreFingerprint(d, core.KindPlausibility)
		},
		Compare: func(tb testing.TB, want, got map[string]float64) {
			if len(want) == 0 {
				tb.Fatal("sequential scoring stored no pair scores — fixture too small")
			}
			if len(got) != len(want) {
				tb.Fatalf("stored %d pair scores, want %d", len(got), len(want))
			}
			for key, w := range want {
				g, ok := got[key]
				if !ok || math.Float64bits(g) != math.Float64bits(w) {
					tb.Fatalf("pair %s: parallel %v (present=%v) vs sequential %v", key, g, ok, w)
				}
			}
		},
	}.Run(t)
}

// dirBytes reads every regular file of a directory into a name → content
// map — the byte-identity fingerprint of a persisted store.
func dirBytes(tb testing.TB, dir string) map[string][]byte {
	tb.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func TestConformanceDocstoreSaveBytes(t *testing.T) {
	corpus := testkit.Corpus{Seed: 3}
	db := corpus.DocDB(t, 400)
	save := func(tb testing.TB, workers int) map[string][]byte {
		dir := tb.TempDir()
		if err := db.SaveParallelOpts(dir, docstore.SaveOpts{Workers: workers, Segments: 5}); err != nil {
			tb.Fatalf("save with %d workers: %v", workers, err)
		}
		return dirBytes(tb, dir)
	}
	testkit.Differential[map[string][]byte]{
		Name: "docstore/save-bytes",
		Sequential: func(tb testing.TB) map[string][]byte {
			return save(tb, 1)
		},
		Parallel: func(tb testing.TB, workers int) map[string][]byte {
			return save(tb, workers)
		},
	}.Run(t)
}

func TestConformanceDocstoreRoundTrip(t *testing.T) {
	corpus := testkit.Corpus{Seed: 5}
	db := corpus.DocDB(t, 400)
	testkit.Differential[map[string]any]{
		Name: "docstore/round-trip",
		Sequential: func(tb testing.TB) map[string]any {
			// The in-memory documents as encoding/json reads them back are
			// the reference: no docstore code on that side.
			return jsonFingerprint(tb, db)
		},
		Parallel: func(tb testing.TB, workers int) map[string]any {
			dir := tb.TempDir()
			if err := db.SaveParallelOpts(dir, docstore.SaveOpts{Workers: workers}); err != nil {
				tb.Fatal(err)
			}
			loaded, err := docstore.LoadParallelOpts(dir, docstore.LoadOpts{Workers: workers})
			if err != nil {
				tb.Fatal(err)
			}
			return testkit.DocDBFingerprint(loaded)
		},
	}.Run(t)

	// The loads above read through docstore's own line decoder, so the
	// reader it replaced stays the judge: a scored corpus' cluster documents
	// load as encoding/json reads the same lines.
	t.Run("reads-as-encoding-json", func(t *testing.T) {
		ds := corpus.Dataset(t, 120, 4)
		plaus.UpdateParallel(ds, 1)
		hetero.UpdateParallel(ds, 1)
		stored := ds.ToDocDB()
		dir := t.TempDir()
		if err := stored.SaveParallelOpts(dir, docstore.SaveOpts{Stride: 16}); err != nil {
			t.Fatal(err)
		}
		want := jsonStoreDocs(t, dir)
		if len(want[core.ClustersCollection]) != ds.NumClusters() {
			t.Fatalf("%d cluster lines on disk, dataset has %d", len(want[core.ClustersCollection]), ds.NumClusters())
		}
		for _, workers := range []int{1, 4} {
			loaded, err := docstore.LoadParallelOpts(dir, docstore.LoadOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for name, docs := range want {
				col := loaded.Collection(name)
				if col.Len() != len(docs) {
					t.Fatalf("workers %d: %s holds %d documents, json reads %d", workers, name, col.Len(), len(docs))
				}
				for id, doc := range docs {
					if !reflect.DeepEqual(col.Get(id), doc) {
						t.Fatalf("workers %d: %s/%s loads differently from json.Unmarshal of its line", workers, name, id)
					}
				}
			}
		}
	})

	// Lines the decoder declines (an escape, a non-ASCII name, an exponent
	// float) between lines it reads itself: the fast and the fallback path in
	// one load, equal to what was saved.
	t.Run("declined-lines", func(t *testing.T) {
		mixed := docstore.NewDB()
		col := mixed.Collection("clusters")
		for i := 0; i < 40; i++ {
			doc := docstore.D("_id", fmt.Sprintf("m%03d", i), "size", float64(i), "records",
				[]any{docstore.D("person", docstore.D("last_name", "SMITH", "age", "41"))})
			switch i % 4 {
			case 1:
				doc["note"] = "q\"uote, back\\slash, <tag> & tab\t"
			case 2:
				doc["records"] = []any{docstore.D("person", docstore.D("last_name", "ÅSTRÖM", "first_name", "日本"))}
			case 3:
				doc["tiny"], doc["huge"] = 1e-9, 1e21
			}
			if err := col.Insert(doc); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		if err := mixed.SaveParallelOpts(dir, docstore.SaveOpts{Stride: 8}); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			loaded, err := docstore.LoadParallelOpts(dir, docstore.LoadOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(testkit.DocDBFingerprint(loaded), testkit.DocDBFingerprint(mixed)) {
				t.Fatalf("workers %d: the store loads differently from what was saved", workers)
			}
		}
	})
}

// jsonFingerprint is testkit.DocDBFingerprint of db's in-memory documents
// as encoding/json reads them back, so integers compare as the float64 a
// load decodes.
func jsonFingerprint(tb testing.TB, db *docstore.DB) map[string]any {
	tb.Helper()
	fp := testkit.DocDBFingerprint(db)
	for key, v := range fp {
		docs, ok := v.([]docstore.Document)
		if !ok || len(docs) == 0 {
			continue
		}
		back := make([]docstore.Document, len(docs))
		for i, d := range docs {
			raw, err := json.Marshal(d)
			if err == nil {
				err = json.Unmarshal(raw, &back[i])
			}
			if err != nil {
				tb.Fatal(err)
			}
		}
		fp[key] = back
	}
	return fp
}

// jsonStoreDocs reads every document line under dir with encoding/json, by
// collection and _id: the reader the load path used before docstore had a
// decoder of its own.
func jsonStoreDocs(tb testing.TB, dir string) map[string]map[string]docstore.Document {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no document files under %s: %v", dir, err)
	}
	out := map[string]map[string]docstore.Document{}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			tb.Fatal(err)
		}
		name, _, _ := strings.Cut(filepath.Base(file), ".")
		if out[name] == nil {
			out[name] = map[string]docstore.Document{}
		}
		for _, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
			var doc docstore.Document
			if err := json.Unmarshal(line, &doc); err != nil {
				tb.Fatalf("%s: %v", file, err)
			}
			out[name][doc["_id"].(string)] = doc
		}
	}
	return out
}

func TestConformanceDatasetDocDB(t *testing.T) {
	corpus := testkit.Corpus{Seed: 13}
	ds := corpus.Dataset(t, 100, 3)
	db := ds.ToDocDB()
	// The conversion back walks what each document holds; it must rebuild
	// every cluster the documents were made from.
	if back, err := core.FromDocDBParallel(db, 1); err != nil {
		t.Fatal(err)
	} else if diff := core.BuildFingerprintIndex(ds).Diff(core.BuildFingerprintIndex(back)); len(diff) > 0 {
		t.Fatalf("FromDocDBParallel(ToDocDB(ds), 1) changed %d clusters (first: %s)", len(diff), diff[0])
	}
	testkit.Differential[*core.Dataset]{
		Name: "docstore/from-docdb",
		Sequential: func(tb testing.TB) *core.Dataset {
			d, err := core.FromDocDBParallel(db, 1)
			if err != nil {
				tb.Fatal(err)
			}
			return d
		},
		Parallel: func(tb testing.TB, workers int) *core.Dataset {
			d, err := core.FromDocDBParallel(db, workers)
			if err != nil {
				tb.Fatal(err)
			}
			return d
		},
		Compare: func(tb testing.TB, want, got *core.Dataset) {
			if !reflect.DeepEqual(want, got) {
				tb.Fatal("FromDocDBParallel dataset diverges from the one-worker parse")
			}
		},
	}.Run(t)
}
