package testkit_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/docstore"
	"repro/internal/testkit"
)

// The crash-safety sweep: persistence is attacked with every fault kind at
// every mutating-operation index, and after each attempt the store must
// load as the old state, the new state, or fail loudly — never load
// silently mixed data. Atomicity is per collection (each collection's
// manifest rename is its commit point), so the oracle checks collection by
// collection.

// saveOpts pins the layout so the mutating-op sequence is deterministic
// across the counting run and every sweep iteration.
func saveOpts(fs docstore.FS) docstore.SaveOpts {
	return docstore.SaveOpts{Workers: 1, Segments: 4, FS: fs}
}

// stateA is the committed baseline store; stateB is the overwriting save.
func stateA(t *testing.T) *docstore.DB {
	return testkit.Corpus{Seed: 17}.DocDB(t, 300)
}

func stateB(t *testing.T) *docstore.DB {
	db := testkit.Corpus{Seed: 17}.DocDB(t, 300)
	cl := db.Collection("clusters")
	for i := 0; i < 40; i++ {
		if err := cl.Insert(docstore.D("_id", fmt.Sprintf("new%04d", i), "county", "county-3", "score", 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 300; i += 31 {
		cl.Delete(fmt.Sprintf("c%06d", i))
	}
	if err := db.Collection("dataset").Insert(docstore.D("_id", "meta2", "round", 2)); err != nil {
		t.Fatal(err)
	}
	return db
}

// collectionFingerprints captures each collection separately: ordered ids
// plus full documents.
func collectionFingerprints(db *docstore.DB) map[string]any {
	fp := map[string]any{}
	for _, name := range db.CollectionNames() {
		var ids []string
		var docs []docstore.Document
		db.Collection(name).ForEach(func(d docstore.Document) bool {
			ids = append(ids, d["_id"].(string))
			docs = append(docs, d)
			return true
		})
		fp[name] = []any{ids, docs}
	}
	return fp
}

// checkRecovered asserts the loaded store is a per-collection mix of the
// two known-good states and nothing else.
func checkRecovered(t *testing.T, label string, loaded *docstore.DB, fpA, fpB map[string]any) {
	t.Helper()
	got := collectionFingerprints(loaded)
	for name, g := range got {
		if !reflect.DeepEqual(g, fpA[name]) && !reflect.DeepEqual(g, fpB[name]) {
			t.Fatalf("%s: collection %q loaded as neither the old nor the new state", label, name)
		}
	}
	for name := range fpA {
		if _, ok := got[name]; !ok {
			t.Fatalf("%s: collection %q lost", label, name)
		}
	}
}

// roundTripFingerprints computes the two reference states as they look
// after a save/load round trip (Load normalizes JSON numbers, so in-memory
// fingerprints would not compare equal to loaded ones).
func roundTripFingerprints(t *testing.T, db *docstore.DB) map[string]any {
	t.Helper()
	dir := t.TempDir()
	if err := db.SaveParallelOpts(dir, saveOpts(nil)); err != nil {
		t.Fatal(err)
	}
	loaded, err := docstore.LoadParallelOpts(dir, docstore.LoadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return collectionFingerprints(loaded)
}

// countSaveOps replays the exact sweep scenario (state B saved over a
// committed state A) against a passive FaultFS and returns the number of
// mutating operations the save performs.
func countSaveOps(t *testing.T, a, b *docstore.DB) int {
	t.Helper()
	dir := t.TempDir()
	if err := a.SaveParallelOpts(dir, saveOpts(nil)); err != nil {
		t.Fatal(err)
	}
	counter := &testkit.FaultFS{}
	if err := b.SaveParallelOpts(dir, saveOpts(counter)); err != nil {
		t.Fatal(err)
	}
	if counter.Ops() == 0 {
		t.Fatal("counting run observed no mutating operations")
	}
	return counter.Ops()
}

func TestFaultSweepSaveNeverMixesStates(t *testing.T) {
	a, b := stateA(t), stateB(t)
	fpA, fpB := roundTripFingerprints(t, a), roundTripFingerprints(t, b)
	if reflect.DeepEqual(fpA, fpB) {
		t.Fatal("fixture states are identical — the sweep would prove nothing")
	}
	ops := countSaveOps(t, a, b)

	kinds := []struct {
		name string
		kind testkit.FaultKind
	}{
		{"eio", testkit.FaultEIO},
		{"short-write", testkit.FaultShortWrite},
		{"torn-rename", testkit.FaultTornRename},
	}
	sawOld, sawNew := false, false
	for _, k := range kinds {
		k := k
		t.Run(k.name, func(t *testing.T) {
			for failAt := 1; failAt <= ops; failAt++ {
				dir := t.TempDir()
				if err := a.SaveParallelOpts(dir, saveOpts(nil)); err != nil {
					t.Fatal(err)
				}
				ffs := &testkit.FaultFS{Kind: k.kind, FailAt: failAt}
				saveErr := b.SaveParallelOpts(dir, saveOpts(ffs))
				// Post-commit cleanup failures are absorbed by design, so
				// the save may succeed; a reported failure must be ours.
				if saveErr != nil && !errors.Is(saveErr, testkit.ErrInjected) {
					t.Fatalf("failAt=%d: save failed with a non-injected error: %v", failAt, saveErr)
				}
				loaded, loadErr := docstore.LoadParallelOpts(dir, docstore.LoadOpts{})
				if loadErr != nil {
					continue // loud failure is an acceptable outcome
				}
				label := fmt.Sprintf("%s failAt=%d", k.name, failAt)
				checkRecovered(t, label, loaded, fpA, fpB)
				got := collectionFingerprints(loaded)
				sawOld = sawOld || reflect.DeepEqual(got, fpA)
				sawNew = sawNew || reflect.DeepEqual(got, fpB)
			}
		})
	}
	if !sawOld || !sawNew {
		t.Errorf("sweep never observed both pure states (old=%v new=%v) — commit point not exercised", sawOld, sawNew)
	}
}

// TestFaultSweepCrashRecovery drops sync on every suffix of the save's
// mutating operations, simulates power loss, and requires recovery to read
// per-collection old state, new state, or a loud error.
func TestFaultSweepCrashRecovery(t *testing.T) {
	a, b := stateA(t), stateB(t)
	fpA, fpB := roundTripFingerprints(t, a), roundTripFingerprints(t, b)
	ops := countSaveOps(t, a, b)

	for dropAfter := 0; dropAfter < ops; dropAfter++ {
		dir := t.TempDir()
		if err := a.SaveParallelOpts(dir, saveOpts(nil)); err != nil {
			t.Fatal(err)
		}
		ffs := &testkit.FaultFS{DropAfter: dropAfter}
		if err := b.SaveParallelOpts(dir, saveOpts(ffs)); err != nil {
			t.Fatalf("dropAfter=%d: save reported failure before the crash: %v", dropAfter, err)
		}
		ffs.Crash()
		loaded, err := docstore.LoadParallelOpts(dir, docstore.LoadOpts{})
		if err != nil {
			continue // loud failure is an acceptable outcome
		}
		checkRecovered(t, fmt.Sprintf("crash dropAfter=%d", dropAfter), loaded, fpA, fpB)
	}
}

// TestFaultFSSemantics pins the injector's own contract.
func TestFaultFSSemantics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")

	t.Run("eio-at-n", func(t *testing.T) {
		ffs := &testkit.FaultFS{Kind: testkit.FaultEIO, FailAt: 2}
		if err := ffs.WriteFile(path, []byte("one"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := ffs.WriteFile(path, []byte("two"), 0o644); !errors.Is(err, testkit.ErrInjected) {
			t.Fatalf("second op: %v, want injected fault", err)
		}
		if data, _ := os.ReadFile(path); string(data) != "one" {
			t.Fatalf("EIO op took effect: %q", data)
		}
		if ffs.Ops() != 2 {
			t.Fatalf("ops = %d, want 2", ffs.Ops())
		}
	})

	t.Run("short-write", func(t *testing.T) {
		ffs := &testkit.FaultFS{Kind: testkit.FaultShortWrite, FailAt: 1}
		if err := ffs.WriteFile(path, []byte("abcdef"), 0o644); !errors.Is(err, testkit.ErrInjected) {
			t.Fatalf("got %v, want injected fault", err)
		}
		if data, _ := os.ReadFile(path); string(data) != "abc" {
			t.Fatalf("short write left %q, want the half prefix", data)
		}
	})

	t.Run("torn-rename", func(t *testing.T) {
		src, dst := filepath.Join(dir, "src"), filepath.Join(dir, "dst")
		if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		ffs := &testkit.FaultFS{Kind: testkit.FaultTornRename, FailAt: 1}
		if err := ffs.Rename(src, dst); !errors.Is(err, testkit.ErrInjected) {
			t.Fatalf("got %v, want injected fault", err)
		}
		if _, err := os.Stat(dst); err != nil {
			t.Fatal("torn rename must still perform the rename")
		}
	})

	t.Run("crash-rolls-back-unsynced", func(t *testing.T) {
		d := t.TempDir()
		synced, volatile := filepath.Join(d, "synced"), filepath.Join(d, "volatile")
		ffs := &testkit.FaultFS{DropAfter: 1}
		if err := ffs.WriteFile(synced, []byte("durable"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := ffs.WriteFile(volatile, []byte("going-away"), 0o644); err != nil {
			t.Fatal(err)
		}
		ffs.Crash()
		if data, _ := os.ReadFile(synced); string(data) != "durable" {
			t.Fatalf("synced file lost: %q", data)
		}
		if data, _ := os.ReadFile(volatile); string(data) != "going" {
			t.Fatalf("unsynced created file = %q, want torn prefix", data)
		}
		if err := ffs.WriteFile(synced, []byte("post"), 0o644); !errors.Is(err, testkit.ErrInjected) {
			t.Fatalf("op after crash: %v, want failure", err)
		}
	})
}
