package provenance

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/docstore"
	"repro/internal/obs"
	"repro/internal/testkit"
)

var testMeta = Meta{
	Source:  "test",
	Mode:    "none",
	Lineage: []string{"2008-01-01", "2008-11-04"},
	Generator: &GeneratorInfo{
		Tool: "ncgen", Seed: 3, Voters: 100, Years: 2, Errors: "light", UnsoundRate: 0.002,
	},
}

func TestSaveVerifyRoundTrip(t *testing.T) {
	db := testkit.Corpus{Seed: 3}.DocDB(t, 150)
	dir := t.TempDir()
	m := obs.NewMetrics()
	rec, err := Save(db, dir, docstore.SaveOpts{Stride: 16}, StampOpts{Meta: testMeta, Observer: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Chain) != 1 || rec.Head().Seq != 1 || rec.Head().Parent != "" {
		t.Fatalf("fresh save: chain %+v", rec.Chain)
	}
	c := m.Snapshot().Counters
	if c[CounterStamps] != 1 || c[CounterLinks] != 1 || c[CounterChainResets] != 0 {
		t.Errorf("stamp counters: %v", c)
	}
	// A full save reuses no leaf, and says so: the zero is reported.
	if reused, ok := c[CounterLeavesReused]; c[CounterLeavesHashed] != int64(rec.Head().Leaves) || !ok || reused != 0 {
		t.Errorf("leaf counters: %v (head promises %d leaves)", c, rec.Head().Leaves)
	}

	rep, err := VerifyDir(dir, VerifyOpts{})
	if err != nil {
		t.Fatalf("clean store failed verification: %v", err)
	}
	if rep.Leaves != rec.Head().Leaves || len(rep.Bad) != 0 {
		t.Errorf("report: %+v", rep)
	}
	// The loaded record round-trips to the exact on-disk bytes.
	loaded, raw, err := LoadRecord(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, loaded.Encode()) || !bytes.Equal(raw, rec.Encode()) {
		t.Error("record does not round-trip to its on-disk bytes")
	}
}

func TestSaveDeterministicAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 7} {
		db := testkit.Corpus{Seed: 9}.DocDB(t, 120)
		dir := t.TempDir()
		if _, err := Save(db, dir, docstore.SaveOpts{Stride: 16, Workers: workers}, StampOpts{Meta: testMeta}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(recordPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = raw
		} else if !bytes.Equal(want, raw) {
			t.Fatalf("workers=%d: record bytes differ from workers=1", workers)
		}
	}
}

func TestSaveExtendsChain(t *testing.T) {
	db := testkit.Corpus{Seed: 5}.DocDB(t, 100)
	dir := t.TempDir()
	opts := docstore.SaveOpts{Stride: 16}
	first, err := Save(db, dir, opts, StampOpts{Meta: testMeta})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Collection("clusters").Insert(docstore.D("_id", "zz-new", "county", "county-1", "score", 0.5)); err != nil {
		t.Fatal(err)
	}
	second, err := Save(db, dir, opts, StampOpts{Meta: testMeta})
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Chain) != 2 {
		t.Fatalf("second save: %d chain links, want 2", len(second.Chain))
	}
	if second.Chain[0] != first.Chain[0] {
		t.Error("second save rewrote the genesis link")
	}
	if second.Head().Parent != first.HeadHash() {
		t.Error("second link does not carry the first head's hash")
	}
	if second.Head().Root == first.Root() {
		t.Error("corpus root unchanged although a document was added")
	}
	if _, err := VerifyDir(dir, VerifyOpts{}); err != nil {
		t.Fatalf("extended store failed verification: %v", err)
	}
}

func TestSaveResetsBrokenChain(t *testing.T) {
	db := testkit.Corpus{Seed: 7}.DocDB(t, 80)
	dir := t.TempDir()
	opts := docstore.SaveOpts{Stride: 16}
	if _, err := Save(db, dir, opts, StampOpts{Meta: testMeta}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recordPath(dir), []byte("{not a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	rec, err := Save(db, dir, opts, StampOpts{Meta: testMeta, Observer: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Chain) != 1 {
		t.Fatalf("save over a broken record: %d chain links, want a fresh genesis", len(rec.Chain))
	}
	if m.Counter(CounterChainResets) != 1 {
		t.Errorf("chain-reset counter: %v", m.Snapshot().Counters)
	}
	if _, err := VerifyDir(dir, VerifyOpts{}); err != nil {
		t.Fatalf("re-stamped store failed verification: %v", err)
	}
}

func TestDirtySaveReusesDigests(t *testing.T) {
	db := testkit.Corpus{Seed: 11}.DocDB(t, 150)
	dir := t.TempDir()
	first, err := Save(db, dir, docstore.SaveOpts{Stride: 16}, StampOpts{Meta: testMeta})
	if err != nil {
		t.Fatal(err)
	}
	// A dirty save naming no changed documents: every segment is reusable,
	// so every leaf digest must be carried over without re-reading a file.
	m := obs.NewMetrics()
	second, err := Save(db, dir, docstore.SaveOpts{
		Stride: 16,
		Dirty:  map[string]map[string]bool{"clusters": {}, "dataset": {}},
	}, StampOpts{Meta: testMeta, Observer: m})
	if err != nil {
		t.Fatal(err)
	}
	if m.Counter(CounterLeavesReused) != int64(second.Head().Leaves) || m.Counter(CounterLeavesHashed) != 0 {
		t.Errorf("leaf counters after no-op dirty save: %v (head promises %d leaves)", m.Snapshot().Counters, second.Head().Leaves)
	}
	if len(second.Chain) != 2 || second.Head().Root != first.Root() {
		t.Errorf("no-op dirty save: chain %d links, root changed %v",
			len(second.Chain), second.Head().Root != first.Root())
	}
	if _, err := VerifyDir(dir, VerifyOpts{}); err != nil {
		t.Fatalf("dirty-saved store failed verification: %v", err)
	}
}

func TestVerifyPinpointsTamperedFiles(t *testing.T) {
	db := testkit.Corpus{Seed: 13}.DocDB(t, 150)
	dir := t.TempDir()
	rec, err := Save(db, dir, docstore.SaveOpts{Stride: 16}, StampOpts{Meta: testMeta})
	if err != nil {
		t.Fatal(err)
	}
	flip := func(t *testing.T, name string, offset int) func() {
		t.Helper()
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mod := append([]byte{}, orig...)
		mod[offset%len(mod)] ^= 0x01
		if err := os.WriteFile(path, mod, 0o644); err != nil {
			t.Fatal(err)
		}
		return func() { os.WriteFile(path, orig, 0o644) }
	}

	// One flipped bit in any segment or manifest must blame exactly that
	// file.
	var disk []string
	for _, c := range rec.Collections {
		disk = append(disk, docstore.ManifestFileName(c.Name))
		for _, l := range c.Leaves {
			disk = append(disk, l.File)
		}
	}
	for _, name := range disk {
		restore := flip(t, name, 41)
		rep, err := VerifyDir(dir, VerifyOpts{})
		if err == nil {
			t.Fatalf("flip in %s went undetected", name)
		}
		if len(rep.Bad) != 1 || rep.Bad[0] != name {
			t.Fatalf("flip in %s blamed %v", name, rep.Bad)
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("flip in %s: error does not name it: %v", name, err)
		}
		restore()
	}

	// A flipped bit inside the record blames the record, never a data file.
	restore := flip(t, RecordFile, 200)
	rep, err := VerifyDir(dir, VerifyOpts{})
	if err == nil {
		t.Fatal("flip in the record went undetected")
	}
	if len(rep.Bad) != 1 || rep.Bad[0] != RecordFile {
		t.Fatalf("flip in the record blamed %v", rep.Bad)
	}
	restore()
	if _, err := VerifyDir(dir, VerifyOpts{}); err != nil {
		t.Fatalf("restored store failed verification: %v", err)
	}
}

func TestVerifyExpectRoot(t *testing.T) {
	db := testkit.Corpus{Seed: 17}.DocDB(t, 90)
	dir := t.TempDir()
	rec, err := Save(db, dir, docstore.SaveOpts{Stride: 16}, StampOpts{Meta: testMeta})
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []string{rec.Root(), rec.HeadHash()} {
		if _, err := VerifyDir(dir, VerifyOpts{ExpectRoot: pin}); err != nil {
			t.Errorf("pin %s rejected: %v", pin, err)
		}
	}
	wrong := strings.Repeat("ab", 32)
	if _, err := VerifyDir(dir, VerifyOpts{ExpectRoot: wrong}); err == nil {
		t.Error("wrong pin accepted")
	}
}

func TestVerifyMissingSegment(t *testing.T) {
	db := testkit.Corpus{Seed: 19}.DocDB(t, 90)
	dir := t.TempDir()
	rec, err := Save(db, dir, docstore.SaveOpts{Stride: 16}, StampOpts{Meta: testMeta})
	if err != nil {
		t.Fatal(err)
	}
	victim := rec.Collections[0].Leaves[0].File
	if err := os.Remove(filepath.Join(dir, victim)); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(dir, VerifyOpts{})
	if err == nil || len(rep.Bad) != 1 || rep.Bad[0] != victim {
		t.Fatalf("missing %s: err=%v bad=%v", victim, err, rep.Bad)
	}
}

func TestGeneratorInfoRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g := GeneratorInfo{Tool: "ncgen", Seed: 42, Voters: 500, Years: 3, Errors: "heavy", UnsoundRate: 0.01}
	if err := WriteGeneratorInfo(dir, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGeneratorInfo(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || *got != g {
		t.Fatalf("round trip: %+v, want %+v", got, g)
	}
	missing, err := ReadGeneratorInfo(t.TempDir())
	if err != nil || missing != nil {
		t.Fatalf("missing descriptor: %+v, %v", missing, err)
	}
}
