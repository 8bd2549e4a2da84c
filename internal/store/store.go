// Package store is the one way a program opens and writes a test-dataset
// store: Open loads a directory only as far as its provenance record vouches
// for it, and Commit renders, saves and stamps a dataset in one call.
package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/docstore"
	"repro/internal/provenance"
)

// OpenOpts configures Open. Its read-hash-decode and parse pools run on
// GOMAXPROCS workers.
type OpenOpts struct {
	Cache    *docstore.SegmentCache // memoizes decoded segments across opens
	Observer counter.Sink           // docstore_* load counters; nil drops them
}

// Open loads dir through its provenance record's CheckedFS: the record must
// pass its self-check, every manifest and segment the load reads must hash
// to its digest there, and every collection it names must load. A missing or
// empty directory holds no store and matches fs.ErrNotExist; any other
// failure is a refusal naming the file. Segments o.Cache serves are not
// re-read: the checked manifest pins their bytes.
func Open(dir string, o OpenOpts) (*core.Dataset, *provenance.Record, error) {
	if entries, err := os.ReadDir(dir); len(entries) == 0 && (err == nil || errors.Is(err, fs.ErrNotExist)) {
		return nil, nil, fmt.Errorf("store %s misses the dataset metadata (missing or empty directory): %w", dir, fs.ErrNotExist)
	}
	rec, _, err := provenance.LoadRecord(nil, dir)
	if err == nil {
		err = rec.SelfCheck()
	}
	if err != nil {
		// %v, not %w: an unstamped store must not read as a missing one.
		return nil, nil, fmt.Errorf("store %s: %s: %v", dir, provenance.RecordFile, err)
	}
	db, err := docstore.LoadParallelOpts(dir, docstore.LoadOpts{Cache: o.Cache, Observer: o.Observer, FS: rec.CheckedFS(docstore.OSFS)})
	if err != nil {
		return nil, nil, err
	}
	for _, c := range rec.Collections { // a collection whose manifest is gone
		if !slices.Contains(db.CollectionNames(), c.Name) {
			return nil, nil, fmt.Errorf("store %s: %s is missing", dir, docstore.ManifestFileName(c.Name))
		}
	}
	ds, err := core.FromDocDBParallel(db, 0)
	if err != nil {
		return nil, nil, err
	}
	return ds, rec, nil
}

// CommitOpts configures Commit. Its save encode pool runs on GOMAXPROCS
// workers; the bytes on disk do not depend on their count.
type CommitOpts struct {
	Stride   int             // stable segment layout (docstore.SaveOpts.Stride)
	Delta    *core.Delta     // with Stride > 0, rewrite only the segments it touched
	Meta     provenance.Meta // committed by the new chain link
	Observer counter.Sink    // docstore_* and provenance_* counters
}

// Commit renders ds, saves it into dir and stamps the directory's
// provenance record, extending its chain. The caller publishes ds first.
func Commit(ds *core.Dataset, dir string, o CommitOpts) (*provenance.Record, error) {
	save := docstore.SaveOpts{Stride: o.Stride, Observer: o.Observer}
	if o.Delta != nil {
		save.Dirty = o.Delta.DirtyIDs()
	}
	return provenance.Save(ds.ToDocDB(), dir, save, provenance.StampOpts{Meta: o.Meta, Observer: o.Observer})
}
