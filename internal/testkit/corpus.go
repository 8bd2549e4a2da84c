package testkit

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/custom"
	"repro/internal/dedup"
	"repro/internal/docstore"
	"repro/internal/synth"
	"repro/internal/voter"
)

// Corpus is the shared seeded fixture factory: every generator is a pure
// function of the seed and its size arguments, so two tests (or two
// processes) asking for the same corpus get byte-identical data. Tests
// that need distinct data vary the seed, not the generator.
type Corpus struct {
	Seed int64
}

// Config returns the register-simulator configuration behind Snapshots and
// SnapshotFiles: a small population over the given number of snapshot
// dates with high churn (so clusters grow fast at test scale) and heavy
// entry errors including every paper error type — nicknames too, which the
// calibrated defaults leave off.
func (c Corpus) Config(voters, snapshots int) synth.Config {
	cfg := synth.DefaultConfig(c.Seed, voters)
	cfg.Snapshots = synth.Calendar(2008, snapshots)[:snapshots]
	cfg.ReRegisterRate = 0.5
	cfg.MoveRate = 0.15
	cfg.MarryRate = 0.05
	errs := corrupt.Heavy()
	errs.Nickname = 0.08
	cfg.Errors = errs
	return cfg
}

// Snapshots generates the corpus register as in-memory snapshots.
func (c Corpus) Snapshots(voters, snapshots int) []voter.Snapshot {
	return synth.Generate(c.Config(voters, snapshots))
}

// SnapshotFiles writes the corpus register into a fresh temp directory as
// canonical TSV snapshot files and returns their paths in snapshot order.
func (c Corpus) SnapshotFiles(tb testing.TB, voters, snapshots int) []string {
	tb.Helper()
	paths, err := synth.WriteAll(c.Config(voters, snapshots), tb.TempDir())
	if err != nil {
		tb.Fatalf("testkit: writing corpus snapshots: %v", err)
	}
	return paths
}

// Dataset imports the corpus register sequentially (the reference path)
// into a published dataset. Every cluster mixes clean and corrupted rows
// of the same voter, so it exercises scoring, customization and error
// profiling alike.
func (c Corpus) Dataset(tb testing.TB, voters, snapshots int) *core.Dataset {
	tb.Helper()
	d := core.NewDataset(core.RemoveNone)
	for _, snap := range c.Snapshots(voters, snapshots) {
		d.ImportSnapshot(snap)
	}
	d.Publish()
	return d
}

// DedupDataset derives a labeled detection dataset from the corpus via the
// paper's customization recipe (the NC1 clean setting over sample sampled
// clusters, keeping the top largest).
func (c Corpus) DedupDataset(tb testing.TB, voters, snapshots, sample, top int) *dedup.Dataset {
	tb.Helper()
	return custom.Build(c.Dataset(tb, voters, snapshots), custom.NC1Config(c.Seed, sample, top))
}

// DocDB builds a document store exercising the shapes persistence has to
// survive: two collections, nested documents and arrays, and deletions (nil
// slots must not shift document order through a save/load round trip).
// Contents depend only on the corpus seed and docs.
func (c Corpus) DocDB(tb testing.TB, docs int) *docstore.DB {
	tb.Helper()
	db := docstore.NewDB()
	cl := db.Collection("clusters")
	for i := 0; i < docs; i++ {
		d := docstore.D(
			"_id", fmt.Sprintf("c%06d", i),
			"county", fmt.Sprintf("county-%d", (int64(i)+c.Seed)%17),
			"score", float64((int64(i)*7+c.Seed)%101)/100,
			"records", []any{
				docstore.D("name", fmt.Sprintf("n%d", i), "age", i%97),
				docstore.D("name", "x", "tags", []any{"a", "b"}),
			},
		)
		if err := cl.Insert(d); err != nil {
			tb.Fatalf("testkit: inserting corpus doc: %v", err)
		}
	}
	for i := 0; i < docs; i += 13 {
		cl.Delete(fmt.Sprintf("c%06d", i))
	}
	meta := db.Collection("dataset")
	if err := meta.Insert(docstore.D("_id", "meta", "name", "nc", "seed", c.Seed)); err != nil {
		tb.Fatalf("testkit: inserting corpus meta doc: %v", err)
	}
	return db
}

// DocDBFingerprint captures everything store equivalence means: per
// collection the ordered _id sequence and the full documents. Two stores
// with equal fingerprints are indistinguishable to every docstore consumer
// in the pipeline.
func DocDBFingerprint(db *docstore.DB) map[string]any {
	fp := map[string]any{}
	for _, name := range db.CollectionNames() {
		col := db.Collection(name)
		var ids []string
		var docs []docstore.Document
		col.ForEach(func(d docstore.Document) bool {
			ids = append(ids, d["_id"].(string))
			docs = append(docs, d)
			return true
		})
		fp[name+"/ids"] = ids
		fp[name+"/docs"] = docs
	}
	return fp
}
