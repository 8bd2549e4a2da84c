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
	raw, err := fsys.ReadFile(RecordPath(dir))
	if err != nil {
		return rep, fmt.Errorf("provenance: no record to verify: %w", err)
	}
	rec, err := DecodeRecord(raw)
	if err != nil {
		rep.Bad = []string{RecordFile}
		return rep, fmt.Errorf("%s: %w", RecordPath(dir), err)
	}
	rep.Record = rec
	if err := rec.SelfCheck(); err != nil {
		rep.Bad = []string{RecordFile}
		return rep, fmt.Errorf("%s: record is internally inconsistent — the record itself was tampered: %w", RecordPath(dir), err)
	}
	if opts.ExpectRoot != "" && opts.ExpectRoot != rec.Root() && opts.ExpectRoot != rec.HeadHash() {
		return rep, fmt.Errorf("provenance: record root %s (head %s) does not match the pinned digest %s",
			rec.Root(), rec.HeadHash(), opts.ExpectRoot)
	}

	// The record is self-consistent; every remaining failure mode is a file
	// on disk disagreeing with it. Hash manifests inline (small), segments
	// on the pool.
	type job struct {
		file   string
		sha256 string
		bytes  int64
	}
	var jobs []job
	for _, c := range rec.Collections {
		jobs = append(jobs, job{file: docstore.ManifestFileName(c.Name), sha256: c.ManifestSHA256, bytes: -1})
		for _, l := range c.Leaves {
			jobs = append(jobs, job{file: l.File, sha256: l.SHA256, bytes: l.Bytes})
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = max(len(jobs), 1)
	}
	bad := make([]string, len(jobs))
	var hashedBytes, hashedLeaves int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				data, rerr := fsys.ReadFile(filepath.Join(dir, j.file))
				if rerr != nil {
					bad[i] = j.file
					continue
				}
				if j.bytes >= 0 && int64(len(data)) != j.bytes {
					bad[i] = j.file
					continue
				}
				if hexDigest(sha256.Sum256(data)) != j.sha256 {
					bad[i] = j.file
					continue
				}
				mu.Lock()
				hashedBytes += int64(len(data))
				if j.bytes >= 0 {
					hashedLeaves++
				}
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	rep.Leaves = int(hashedLeaves)
	rep.Bytes = hashedBytes
	for _, f := range bad {
		if f != "" {
			rep.Bad = append(rep.Bad, f)
		}
	}
	sort.Strings(rep.Bad)
	if len(rep.Bad) > 0 {
		return rep, fmt.Errorf("provenance: %d file(s) disagree with the record: %s",
			len(rep.Bad), strings.Join(rep.Bad, ", "))
	}
	return rep, nil
}
