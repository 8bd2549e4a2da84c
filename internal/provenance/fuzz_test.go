package provenance

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/docstore"
	"repro/internal/testkit"
)

// Native fuzz targets for the provenance codec and verifier: the record file
// is attacker-visible state exactly like the segment manifests, so arbitrary
// bytes must either decode into a validated record or fail with an error —
// never panic, never size an allocation from a hostile count, never read
// outside the store directory. make fuzz-smoke runs these for a bounded time
// per target; testdata/fuzz holds the seed corpus.

// validRecordBytes stamps a tiny store and returns its record's on-disk
// bytes — the well-formed seed the fuzzer mutates from.
func validRecordBytes(tb testing.TB) []byte {
	tb.Helper()
	db := testkit.Corpus{Seed: 23}.DocDB(tb, 40)
	dir := tb.TempDir()
	if _, err := Save(db, dir, docstore.SaveOpts{Stride: 16}, StampOpts{Meta: testMeta}); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(recordPath(dir))
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzProvenanceDecode feeds arbitrary bytes to the record decoder. A record
// that decodes must round-trip: re-encoding and re-decoding it yields an
// equally valid record with the same head hash.
func FuzzProvenanceDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version":1,"meta":{},"chain":[],"collections":[]}`))
	f.Add([]byte(`{"version":99,"meta":{},"chain":[{"seq":1,"root":"00","docs":0,"leaves":0,"metaHash":"00"}],"collections":[]}`))
	// Hostile shapes: absurd counts, path traversal, duplicate and unsorted
	// collections, negative numbers, malformed digests.
	f.Add([]byte(`{"version":1,"meta":{},"chain":[{"seq":1,"root":"` + zeros64 + `","docs":-1,"leaves":0,"metaHash":"` + zeros64 + `"}],"collections":[]}`))
	f.Add([]byte(`{"version":1,"meta":{},"chain":[{"seq":1,"root":"` + zeros64 + `","docs":0,"leaves":0,"metaHash":"` + zeros64 + `"}],"collections":[{"name":"../../etc","docs":0,"manifestSha256":"` + zeros64 + `","root":"` + zeros64 + `","leaves":[]}]}`))
	f.Add([]byte(`{"version":1,"meta":{},"chain":[{"seq":1,"root":"` + zeros64 + `","docs":0,"leaves":1000000000,"metaHash":"` + zeros64 + `"}],"collections":[{"name":"c","docs":1000000000,"manifestSha256":"` + zeros64 + `","root":"` + zeros64 + `","leaves":[{"file":"c.00.jsonl","docs":1000000000,"bytes":0,"crc32":0,"sha256":"` + zeros64 + `"}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		again, err := DecodeRecord(rec.Encode())
		if err != nil {
			t.Fatalf("accepted record does not re-decode: %v", err)
		}
		if again.HeadHash() != rec.HeadHash() {
			t.Fatal("re-decoded record changed its head hash")
		}
		if !bytes.Equal(again.Encode(), rec.Encode()) {
			t.Fatal("record encoding is not a fixed point")
		}
	})
}

// FuzzChainVerify drops arbitrary bytes into a store as its provenance
// record and runs the full verifier over it: whatever the bytes claim, the
// verifier must return cleanly (error or not), stay inside the directory,
// and pinpoint the record file when the record itself is the corruption.
func FuzzChainVerify(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"meta":{},"chain":[{"seq":1,"root":"` + zeros64 + `","docs":0,"leaves":0,"metaHash":"` + zeros64 + `"}],"collections":[]}`))
	f.Add([]byte(`{"version":1,"meta":{},"chain":[{"seq":1,"root":"` + zeros64 + `","docs":1,"leaves":1,"metaHash":"` + zeros64 + `"}],"collections":[{"name":"c","docs":1,"manifestSha256":"` + zeros64 + `","root":"` + zeros64 + `","leaves":[{"file":"c.00.jsonl","docs":1,"bytes":4,"crc32":0,"sha256":"` + zeros64 + `"}]}]}`))
	f.Add(validRecordBytes(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(recordPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// One plausible data file, so records naming it exercise the digest
		// comparison too.
		if err := os.WriteFile(filepath.Join(dir, "c.00.jsonl"), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := VerifyDir(dir, VerifyOpts{Workers: 2})
		if err == nil {
			return // the bytes happened to describe the directory truthfully
		}
		if rep == nil {
			t.Fatal("verifier returned a nil report with its error")
		}
		for _, bad := range rep.Bad {
			if filepath.Base(bad) != bad {
				t.Fatalf("verifier blamed a file outside the store: %q", bad)
			}
		}
	})
}

const zeros64 = "0000000000000000000000000000000000000000000000000000000000000000"
