package provenance

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/docstore"
)

// VerifyOpts configures VerifyDir.
type VerifyOpts struct {
	// Workers is the leaf-hashing pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// FS substitutes the filesystem the verification reads through; nil
	// selects the OS filesystem. The fault-injection sweep reads through a
	// bit-flipping FS here.
	FS docstore.FS
	// ExpectRoot, when non-empty, must match the record's corpus root or its
	// head-link hash. This is the out-of-band pin that upgrades the record
	// from self-consistent to trusted: a verifier that checks only what the
	// record says would accept a wholesale re-forged record.
	ExpectRoot string
}

// Report is the outcome of one VerifyDir run.
type Report struct {
	// Record is the decoded record, when one decoded at all.
	Record *Record
	// Leaves counts segment files whose SHA-256 was re-derived.
	Leaves int
	// Bytes counts the bytes hashed across segments and manifests.
	Bytes int64
	// Bad lists the store-relative names of every file found corrupted —
	// the record file itself, a manifest, or an exact segment. Empty on a
	// clean verification.
	Bad []string
}

// VerifyDir re-derives every digest the store directory's provenance record
// promises: the SHA-256 of each segment file and each collection manifest,
// the per-collection Merkle roots, the corpus root and the whole hash chain.
// Segment hashing runs on a worker pool. The returned error describes the
// first problem; Report.Bad names every corrupted file found, pinpointing
// the exact leaf rather than just declaring the chain broken — a record
// failing its own self-check blames provenance.json, a self-consistent
// record with a digest mismatch blames the segment or manifest on disk.
func VerifyDir(dir string, opts VerifyOpts) (*Report, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = docstore.OSFS
	}
	rep := &Report{}
	raw, err := fsys.ReadFile(recordPath(dir))
	if err != nil {
		return rep, fmt.Errorf("provenance: no record to verify: %w", err)
	}
	rec, err := DecodeRecord(raw)
	if err != nil {
		rep.Bad = []string{RecordFile}
		return rep, fmt.Errorf("%s: %w", recordPath(dir), err)
	}
	rep.Record = rec
	if err := rec.SelfCheck(); err != nil {
		rep.Bad = []string{RecordFile}
		return rep, fmt.Errorf("%s: record is internally inconsistent — the record itself was tampered: %w", recordPath(dir), err)
	}
	if opts.ExpectRoot != "" && opts.ExpectRoot != rec.Root() && opts.ExpectRoot != rec.HeadHash() {
		return rep, fmt.Errorf("provenance: record root %s (head %s) does not match the pinned digest %s",
			rec.Root(), rec.HeadHash(), opts.ExpectRoot)
	}

	// The record is self-consistent; every remaining failure mode is a file
	// on disk disagreeing with it. Manifests and segments hash on the pool.
	var files []string
	for _, c := range rec.Collections {
		files = append(files, docstore.ManifestFileName(c.Name))
		for _, l := range c.Leaves {
			files = append(files, l.File)
		}
	}
	checked := rec.CheckedFS(fsys)

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(files)), 1)
	sizes := make([]int64, len(files)) // -1: the file disagrees with the record
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				data, err := checked.ReadFile(filepath.Join(dir, files[i]))
				if sizes[i] = int64(len(data)); err != nil {
					sizes[i] = -1
				}
			}
		}()
	}
	for i := range files {
		next <- i
	}
	close(next)
	wg.Wait()

	for i, f := range files {
		if sizes[i] < 0 {
			rep.Bad = append(rep.Bad, f)
			continue
		}
		rep.Bytes += sizes[i]
		if !strings.HasSuffix(f, docstore.ManifestFileName("")) {
			rep.Leaves++
		}
	}
	sort.Strings(rep.Bad)
	if len(rep.Bad) > 0 {
		return rep, fmt.Errorf("provenance: %d file(s) disagree with the record: %s",
			len(rep.Bad), strings.Join(rep.Bad, ", "))
	}
	return rep, nil
}

// CheckedFS returns base with ReadFile holding every file it returns to the
// SHA-256 r records for it; a file r does not name fails. VerifyDir reads
// through it, and as docstore.LoadOpts.FS it checks a load's own reads, so
// the bytes checked are the bytes parsed. r must have passed SelfCheck.
func (r *Record) CheckedFS(base docstore.FS) docstore.FS {
	c := checkedFS{base, map[string]string{}}
	for _, col := range r.Collections {
		c.want[docstore.ManifestFileName(col.Name)] = col.ManifestSHA256
		for _, l := range col.Leaves {
			c.want[l.File] = l.SHA256
		}
	}
	return c
}

// checkedFS is CheckedFS's filesystem: want maps file names to SHA-256s.
type checkedFS struct {
	docstore.FS
	want map[string]string
}

func (c checkedFS) ReadFile(path string) ([]byte, error) {
	data, err := c.FS.ReadFile(path)
	if err == nil && hexDigest(sha256.Sum256(data)) != c.want[filepath.Base(path)] {
		return nil, fmt.Errorf("%s disagrees with %s", path, RecordFile)
	}
	return data, err
}
