package testkit_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/docstore"
	"repro/internal/hetero"
	"repro/internal/obs"
	"repro/internal/plaus"
	"repro/internal/provenance"
	"repro/internal/testkit"
)

// TestConformanceProvenance is the differential oracle of the provenance
// chain: a store grown by delta application with dirty-segment saves must
// carry a provenance record byte-identical to the one a from-scratch full
// reimport stamps — same Merkle roots, same chain links, same head hash —
// at every worker count and changed fraction. That is the property that
// makes the chain meaningful: the record commits to *what* the corpus is,
// never to *how* it was saved. Both paths must also pass full verification,
// and the chain must have grown one link per save (extended, not rewritten).
// make conformance runs this under the race detector.

// provResult is what provenance equivalence means.
type provResult struct {
	RecordBytes []byte // provenance.json as stamped
	Root        string
	Head        string
	Links       int
}

// oracleMeta derives the stamp metadata both paths use — a pure function of
// the dataset, so the paths cannot disagree through it.
func oracleMeta(d *core.Dataset) provenance.Meta {
	return provenance.Meta{Source: "oracle", Mode: d.Mode.String(), Lineage: d.SnapshotLineage()}
}

// stampStore saves the dataset with the stable stride layout and a
// provenance stamp, returning the record.
func stampStore(tb testing.TB, d *core.Dataset, dir string, opts docstore.SaveOpts, sink counter.Sink) *provenance.Record {
	tb.Helper()
	opts.Stride = deltaStride
	rec, err := provenance.Save(d.ToDocDB(), dir, opts, provenance.StampOpts{Meta: oracleMeta(d), Observer: sink})
	if err != nil {
		tb.Fatal(err)
	}
	return rec
}

// provResultOf verifies the stamped store and packages the comparison
// fields.
func provResultOf(tb testing.TB, dir string, rec *provenance.Record) provResult {
	tb.Helper()
	rep, err := provenance.VerifyDir(dir, provenance.VerifyOpts{ExpectRoot: rec.HeadHash()})
	if err != nil {
		tb.Fatalf("stamped store failed verification: %v", err)
	}
	if rep.Leaves != rec.Head().Leaves {
		tb.Errorf("verification re-derived %d leaves, record promises %d", rep.Leaves, rec.Head().Leaves)
	}
	raw, err := docstore.OSFS.ReadFile(filepath.Join(dir, provenance.RecordFile))
	if err != nil {
		tb.Fatal(err)
	}
	return provResult{RecordBytes: raw, Root: rec.Root(), Head: rec.HeadHash(), Links: len(rec.Chain)}
}

func TestConformanceProvenance(t *testing.T) {
	corpus := testkit.Corpus{Seed: 17}
	basePaths := corpus.SnapshotFiles(t, 140, 3)

	proto := core.NewDataset(core.RemoveTrimmed)
	for _, p := range basePaths {
		importReference(t, proto, p)
		proto.Publish()
	}
	rounds := len(basePaths) + 1

	// The 1% delta is a contiguous update batch (good segment locality, so
	// digest carryover must engage); the larger fractions use worst-case
	// spread with replay rows, where every segment legitimately rewrites.
	for _, tc := range []struct {
		fraction   float64
		contiguous bool
	}{{0.01, true}, {0.25, false}, {1.0, false}} {
		fraction, contiguous := tc.fraction, tc.contiguous
		deltaPath, changed, err := testkit.WriteDeltaFile(t.TempDir(), proto, "2097-01-01", fraction, contiguous)
		if err != nil {
			t.Fatal(err)
		}
		if changed < 1 {
			t.Fatalf("fraction %g: delta file changes no clusters", fraction)
		}

		testkit.Differential[provResult]{
			Name: fmt.Sprintf("provenance/frac=%v", fraction),
			Sequential: func(tb testing.TB) provResult {
				// Reference: full reimport, full rewrite plus a fresh stamp
				// extending the chain after every round.
				d := core.NewDataset(core.RemoveTrimmed)
				dir := tb.TempDir()
				var rec *provenance.Record
				for _, p := range append(append([]string{}, basePaths...), deltaPath) {
					importReference(tb, d, p)
					d.Publish()
					scoreRound(d, 1)
					rec = stampStore(tb, d, dir, docstore.SaveOpts{}, nil)
				}
				return provResultOf(tb, dir, rec)
			},
			Parallel: func(tb testing.TB, workers int) provResult {
				// Under test: parallel base rounds, then delta apply with a
				// dirty-segment save whose stamp reuses unchanged leaf
				// digests.
				d := core.NewDataset(core.RemoveTrimmed)
				dir := tb.TempDir()
				for _, p := range basePaths {
					if _, err := d.ImportSnapshotFileParallelOpts(p, core.IngestOptions{Workers: workers, ChunkBytes: 1 << 12}); err != nil {
						tb.Fatal(err)
					}
					d.Publish()
					scoreRound(d, workers)
					stampStore(tb, d, dir, docstore.SaveOpts{Workers: workers}, nil)
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
				rec := stampStore(tb, d, dir, docstore.SaveOpts{Workers: workers, Dirty: dl.DirtyIDs()}, m)
				// The dirty save must account for every leaf, split between
				// fresh hashes and carried-over digests; the contiguous 1%
				// batch must actually carry some over (the fast path under
				// test), while the spread deltas replay a record into every
				// segment and legitimately rehash them all.
				hashed, reused := m.Counter(provenance.CounterLeavesHashed), m.Counter(provenance.CounterLeavesReused)
				if total := hashed + reused; total != int64(rec.Head().Leaves) {
					tb.Errorf("stamp accounted %d leaves, head promises %d", total, rec.Head().Leaves)
				}
				if contiguous && reused == 0 {
					tb.Errorf("fraction %g dirty save carried no leaf digests over", fraction)
				}
				return provResultOf(tb, dir, rec)
			},
			Compare: func(tb testing.TB, want, got provResult) {
				if got.Links != rounds || want.Links != rounds {
					tb.Errorf("chain has %d/%d links, want %d (one per save)", got.Links, want.Links, rounds)
				}
				if got.Root != want.Root {
					tb.Errorf("corpus root diverges: %s vs %s", got.Root, want.Root)
				}
				if got.Head != want.Head {
					tb.Errorf("head hash diverges: %s vs %s", got.Head, want.Head)
				}
				if !bytes.Equal(got.RecordBytes, want.RecordBytes) {
					tb.Error("provenance record bytes diverge from full reimport")
				}
			},
		}.Run(t)
	}
}
