package testkit_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/hetero"
	"repro/internal/obs"
	"repro/internal/plaus"
	"repro/internal/testkit"
)

// TestConformanceDelta is the tentpole oracle: a dataset grown by
// ApplySnapshotDelta — with dirty-cluster rescoring and a dirty-segment save
// — must be indistinguishable from a from-scratch full reimport that scores
// every round and rewrites the whole store. "Indistinguishable" is literal:
// reflect.DeepEqual on the datasets (clusters, order, hashes, similarity
// maps, version metadata) and byte equality of every persisted file. The
// sweep covers changed fractions {0%, 1%, 25%, 100%} at every worker-ladder
// count; make conformance runs it under the race detector.

// deltaStride keeps segments small enough that the corpus spans many of
// them, so dirty-segment reuse is actually exercised rather than collapsing
// to one always-dirty segment.
const deltaStride = 32

// deltaResult is what delta equivalence means.
type deltaResult struct {
	Dataset *core.Dataset
	Store   map[string][]byte
}

// scoreRound brings the dataset's three standard score kinds up to date —
// the full-scope pass used after base imports and by the reference path.
func scoreRound(d *core.Dataset, workers int) {
	plaus.UpdateParallel(d, workers)
	hetero.UpdateParallel(d, workers)
}

// saveStore persists the dataset with the stable stride layout and returns
// the directory's bytes.
func saveStore(tb testing.TB, d *core.Dataset, dir string, opts docstore.SaveOpts) map[string][]byte {
	tb.Helper()
	opts.Stride = deltaStride
	if err := d.ToDocDB().SaveParallelOpts(dir, opts); err != nil {
		tb.Fatal(err)
	}
	return dirBytes(tb, dir)
}

func TestConformanceDelta(t *testing.T) {
	corpus := testkit.Corpus{Seed: 17}
	basePaths := corpus.SnapshotFiles(t, 140, 3)

	// Prototype base dataset, used only to synthesize the delta files.
	proto := core.NewDataset(core.RemoveTrimmed)
	for _, p := range basePaths {
		importReference(t, proto, p)
		proto.Publish()
	}

	prevChanged := 0
	for _, fraction := range []float64{0, 0.01, 0.25, 1.0} {
		fraction := fraction
		deltaPath, changed, err := testkit.WriteDeltaFile(t.TempDir(), proto, "2097-01-01", fraction, false)
		if err != nil {
			t.Fatal(err)
		}
		if fraction > 0 && changed < 1 {
			t.Fatalf("fraction %g: delta file changes no clusters", fraction)
		}
		if changed < prevChanged || fraction == 1 && changed != proto.NumClusters() {
			t.Fatalf("fraction %g: delta file changes %d of %d clusters after %d at the previous fraction",
				fraction, changed, proto.NumClusters(), prevChanged)
		}
		prevChanged = changed

		testkit.Differential[deltaResult]{
			Name: fmt.Sprintf("delta/frac=%v", fraction),
			Sequential: func(tb testing.TB) deltaResult {
				// Reference: full reimport of base files plus the delta file
				// through the standard machinery, scoring after every round,
				// full store rewrite at the end of each round.
				d := core.NewDataset(core.RemoveTrimmed)
				dir := tb.TempDir()
				for _, p := range append(append([]string{}, basePaths...), deltaPath) {
					importReference(tb, d, p)
					d.Publish()
					scoreRound(d, 1)
					saveStore(tb, d, dir, docstore.SaveOpts{})
				}
				return deltaResult{d, dirBytes(tb, dir)}
			},
			Parallel: func(tb testing.TB, workers int) deltaResult {
				// Under test: base rounds through the parallel machinery,
				// then the delta round — ApplySnapshotDelta, dirty-cluster
				// rescoring, dirty-segment save.
				d := core.NewDataset(core.RemoveTrimmed)
				dir := tb.TempDir()
				for _, p := range basePaths {
					if _, err := d.ImportSnapshotFileParallelOpts(p, core.IngestOptions{Workers: workers, ChunkBytes: 1 << 12}); err != nil {
						tb.Fatal(err)
					}
					d.Publish()
					scoreRound(d, workers)
					saveStore(tb, d, dir, docstore.SaveOpts{Workers: workers})
				}
				ix := core.BuildFingerprintIndex(d)
				dl, err := d.ApplySnapshotDelta(deltaPath, core.DeltaOptions{
					Workers: workers, ChunkBytes: 1 << 12, Index: ix,
				})
				if err != nil {
					tb.Fatalf("delta apply: %v", err)
				}
				d.Publish()
				plaus.UpdateDelta(d, dl, workers)
				hetero.UpdateDelta(d, dl, workers)
				m := obs.NewMetrics()
				store := saveStore(tb, d, dir, docstore.SaveOpts{Workers: workers, Dirty: dl.DirtyIDs(), Observer: m})
				if fraction > 0 && (len(dl.Dirty()) != changed || dl.Stats.DirtyClusters != changed) {
					tb.Errorf("delta marked %d clusters dirty (stats say %d), file changed %d",
						len(dl.Dirty()), dl.Stats.DirtyClusters, changed)
				}
				// Every segment of the saved store was either rewritten or
				// reused, the meta segment always rewritten; with every
				// cluster changed nothing is left to reuse.
				segments := int64(0)
				for name := range store {
					if strings.HasSuffix(name, ".jsonl") {
						segments++
					}
				}
				written, reused := m.Counter(docstore.CounterSegmentsWritten), m.Counter(docstore.CounterSegmentsReused)
				if written < 1 || written+reused != segments || fraction == 1 && reused != 0 {
					tb.Errorf("dirty save rewrote %d and reused %d of %d segments", written, reused, segments)
				}
				if err := ix.Verify(d); err != nil {
					tb.Errorf("fingerprint index stale after apply: %v", err)
				}
				return deltaResult{d, dirBytes(tb, dir)}
			},
			Compare: func(tb testing.TB, want, got deltaResult) {
				if !reflect.DeepEqual(want.Dataset, got.Dataset) {
					tb.Error("delta-applied dataset diverges from full reimport")
				}
				if len(got.Store) != len(want.Store) {
					tb.Fatalf("store has %d files, reference %d", len(got.Store), len(want.Store))
				}
				for name, w := range want.Store {
					if g, ok := got.Store[name]; !ok {
						tb.Errorf("store misses %s", name)
					} else if !reflect.DeepEqual(w, g) {
						tb.Errorf("store file %s differs from full-reimport bytes", name)
					}
				}
			},
		}.Run(t)
	}
}
