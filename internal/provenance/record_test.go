package provenance

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/docstore"
	"repro/internal/obs"
	"repro/internal/testkit"
)

// decodeValid returns a freshly decoded copy of a valid stamped record, so
// each table case mutates its own instance.
func decodeValid(tb testing.TB, raw []byte) *Record {
	tb.Helper()
	rec, err := DecodeRecord(raw)
	if err != nil {
		tb.Fatalf("valid record does not decode: %v", err)
	}
	return rec
}

// TestValidateRejections drives every structural rejection of Validate with
// a single targeted mutation of an otherwise valid record: the shapes a
// hostile or corrupted record file can take that must be refused before any
// digest is recomputed or any file opened.
func TestValidateRejections(t *testing.T) {
	raw := validRecordBytes(t)
	cases := []struct {
		name   string
		mutate func(*Record)
		want   string
	}{
		{"unsupported version", func(r *Record) { r.Version = 99 }, "version"},
		{"empty chain", func(r *Record) { r.Chain = nil }, "no chain links"},
		{"seq gap", func(r *Record) { r.Chain[0].Seq = 7 }, "seq"},
		{"genesis with parent", func(r *Record) { r.Chain[0].Parent = zeros64 }, "genesis"},
		{"non-hex parent", func(r *Record) {
			l := r.Chain[0]
			l.Seq, l.Parent = 2, "XYZ"
			r.Chain = append(r.Chain, l)
		}, "parent is not"},
		{"non-hex root", func(r *Record) { r.Chain[0].Root = "beef" }, "malformed digest"},
		{"uppercase metaHash", func(r *Record) { r.Chain[0].MetaHash = strings.Repeat("AB", 32) }, "malformed digest"},
		{"negative docs", func(r *Record) { r.Chain[0].Docs = -1 }, "promises -1 documents"},
		{"traversal collection name", func(r *Record) { r.Collections[0].Name = "../escape" }, "store directory"},
		{"empty collection name", func(r *Record) { r.Collections[0].Name = "" }, "store directory"},
		{"duplicate collection", func(r *Record) {
			r.Collections = append(r.Collections, r.Collections[len(r.Collections)-1])
		}, "listed twice"},
		{"unsorted collections", func(r *Record) {
			r.Collections[0], r.Collections[1] = r.Collections[1], r.Collections[0]
		}, "not sorted"},
		{"negative collection stride", func(r *Record) { r.Collections[0].Stride = -1 }, "at stride"},
		{"non-hex manifest digest", func(r *Record) { r.Collections[0].ManifestSHA256 = "nope" }, "malformed digest"},
		{"absolute leaf path", func(r *Record) { r.Collections[0].Leaves[0].File = "/etc/passwd" }, "store directory"},
		{"duplicate leaf", func(r *Record) {
			c := &r.Collections[0]
			c.Leaves = append(c.Leaves, c.Leaves[0])
		}, "twice"},
		{"negative leaf bytes", func(r *Record) { r.Collections[0].Leaves[0].Bytes = -5 }, "bytes"},
		{"non-hex leaf digest", func(r *Record) { r.Collections[0].Leaves[0].SHA256 = zeros64[:63] + "g" }, "malformed digest"},
		{"leaf docs do not sum", func(r *Record) { r.Collections[0].Docs++ }, "leaves sum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := decodeValid(t, raw)
			tc.mutate(rec)
			err := rec.Validate()
			if err == nil {
				t.Fatal("mutated record still validates")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejection %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := decodeValid(t, raw).Validate(); err != nil {
		t.Fatalf("unmutated record rejected: %v", err)
	}
}

// TestSelfCheckRejections drives the hash-consistency rejections: mutations
// that keep the record structurally valid but break the commitments between
// its parts — the tampering only SelfCheck can catch.
func TestSelfCheckRejections(t *testing.T) {
	// A two-link chain, so the parent linkage itself is checkable.
	db := testkit.Corpus{Seed: 31}.DocDB(t, 30)
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		if _, err := Save(db, dir, docstore.SaveOpts{Stride: 16}, StampOpts{Meta: testMeta}); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(recordPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	flipped := strings.Replace(zeros64, "0", "1", 1)
	cases := []struct {
		name   string
		mutate func(*Record)
		want   string
	}{
		{"broken parent link", func(r *Record) { r.Chain[1].Parent = zeros64 }, "does not extend"},
		{"metadata swapped", func(r *Record) { r.Meta.Source = "elsewhere" }, "meta hash"},
		{"leaf digest swapped", func(r *Record) { r.Collections[0].Leaves[0].SHA256 = zeros64 }, "root does not match its leaves"},
		{"collection root swapped", func(r *Record) { r.Collections[0].Root = flipped }, "root does not match its leaves"},
		{"corpus root swapped", func(r *Record) { r.Chain[1].Root = flipped }, "corpus root"},
		{"doc count inflated", func(r *Record) { r.Chain[1].Docs++ }, "documents"},
		{"leaf count inflated", func(r *Record) { r.Chain[1].Leaves++ }, "leaves"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := decodeValid(t, raw)
			tc.mutate(rec)
			err := rec.SelfCheck()
			if err == nil {
				t.Fatal("mutated record still self-checks")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rejection %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := decodeValid(t, raw).SelfCheck(); err != nil {
		t.Fatalf("unmutated record fails self-check: %v", err)
	}
	// Corpus-root mutation ordering: the collection-root swap above must not
	// have been masked by the corpus root check.
	rec := decodeValid(t, raw)
	rec.Collections[0].Root = flipped
	if err := rec.SelfCheck(); err == nil || !strings.Contains(err.Error(), "leaves") {
		t.Fatalf("collection root swap reported as %v", err)
	}
}

func TestIsHex64(t *testing.T) {
	for _, bad := range []string{"", "00", zeros64 + "00", strings.Repeat("AB", 32), zeros64[:63] + "g", zeros64[:63] + "/"} {
		if isHex64(bad) {
			t.Errorf("isHex64 accepts %q", bad)
		}
	}
	if !isHex64(zeros64) || !isHex64(strings.Repeat("af09", 16)) {
		t.Error("isHex64 rejects canonical digests")
	}
}

func TestLoadRecordErrors(t *testing.T) {
	if _, _, err := LoadRecord(nil, t.TempDir()); err == nil {
		t.Fatal("missing record loads")
	}
	dir := t.TempDir()
	if err := os.WriteFile(recordPath(dir), []byte("not a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, raw, err := LoadRecord(nil, dir)
	if err == nil || rec != nil {
		t.Fatal("malformed record loads")
	}
	if len(raw) == 0 {
		t.Fatal("malformed record load drops the raw bytes")
	}
	if !strings.Contains(err.Error(), RecordFile) {
		t.Fatalf("load error does not name the record file: %v", err)
	}
}

// TestSaveFaultSweep fails every mutating filesystem operation of a stamped
// save in turn — segment writes, manifest renames, the record's own
// write-then-rename — and demands each outcome be honest: either the save
// reports an error, or the fault was harmlessly absorbed (a best-effort
// cleanup) and the stamped store passes full verification. A save must never
// claim success over a half-written store.
func TestSaveFaultSweep(t *testing.T) {
	stamp := func(fsys docstore.FS) (string, error) {
		db := testkit.Corpus{Seed: 37}.DocDB(t, 30)
		dir := t.TempDir()
		_, err := Save(db, dir, docstore.SaveOpts{Stride: 16, FS: fsys}, StampOpts{Meta: testMeta})
		return dir, err
	}
	count := &testkit.FaultFS{}
	if _, err := stamp(count); err != nil {
		t.Fatal(err)
	}
	ops := count.Ops()
	if ops < 5 {
		t.Fatalf("save too small to sweep: %d ops", ops)
	}
	failed := 0
	for at := 1; at <= ops; at++ {
		dir, err := stamp(&testkit.FaultFS{FailAt: at})
		if err != nil {
			failed++
			continue
		}
		if _, verr := VerifyDir(dir, VerifyOpts{}); verr != nil {
			t.Errorf("fault at op %d/%d absorbed but store does not verify: %v", at, ops, verr)
		}
	}
	if failed < ops/2 {
		t.Errorf("only %d/%d faults reported — the sweep is not exercising the error paths", failed, ops)
	}
}

// TestDirtySaveAfterRecordLoss covers the carryover fallback: a dirty save
// whose previous record is gone must re-read the reused segments from disk
// and still produce a correct, verifiable fresh chain.
func TestDirtySaveAfterRecordLoss(t *testing.T) {
	db := testkit.Corpus{Seed: 41}.DocDB(t, 60)
	dir := t.TempDir()
	first, err := Save(db, dir, docstore.SaveOpts{Stride: 16}, StampOpts{Meta: testMeta})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(recordPath(dir)); err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	dirty := map[string]map[string]bool{"clusters": {}, "dataset": {}}
	rec, err := Save(db, dir, docstore.SaveOpts{Stride: 16, Dirty: dirty}, StampOpts{Meta: testMeta, Observer: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Chain) != 1 {
		t.Fatalf("fresh chain has %d links", len(rec.Chain))
	}
	if m.Counter(CounterLeavesReused) != 0 {
		t.Fatal("leaf digests carried over from a deleted record")
	}
	if rec.Root() != first.Root() {
		t.Fatal("re-read digests change the corpus root")
	}
	if _, err := VerifyDir(dir, VerifyOpts{}); err != nil {
		t.Fatalf("restamped store fails verification: %v", err)
	}
}

func TestGeneratorInfoErrors(t *testing.T) {
	if g, err := ReadGeneratorInfo(t.TempDir()); g != nil || err != nil {
		t.Fatalf("missing descriptor: %v %v", g, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, GeneratorFile), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadGeneratorInfo(dir); err == nil {
		t.Fatal("corrupt descriptor reads")
	}
	file := filepath.Join(dir, GeneratorFile)
	if err := WriteGeneratorInfo(filepath.Join(file, "sub"), GeneratorInfo{Tool: "t"}); err == nil {
		t.Fatal("write through a file succeeds")
	}
}
