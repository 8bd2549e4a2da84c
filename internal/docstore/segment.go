package docstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/counter"
)

// Segmented persistence: each collection splits into N segment files
// (<name>.00.jsonl … <name>.NN.jsonl) holding contiguous insertion-order
// ranges, plus a versioned manifest (<name>.manifest.json) that lists the
// segments with their sizes and CRCs. Encoding and decoding fan out over a
// worker pool — the same sharded-worker pattern as snapshot ingest and pair
// scoring — while the segment layout depends only on the data, never on the
// worker count, so saves are byte-identical at any parallelism and loads
// rebuild the saved document order.
//
// The manifest is the commit point. Saves write and rename every segment
// first, then write and rename the manifest, then delete stale files; loads
// trust only what a manifest lists and verify each segment's byte count and
// CRC against it. A crash therefore leaves either the previous complete
// state (no new manifest yet) or the new complete state — segment files
// without a covering manifest are orphans and a loud load error.

const (
	// manifestVersion is bumped when the manifest schema changes; loaders
	// reject versions they do not understand instead of guessing.
	manifestVersion = 1

	// manifestSuffix names a collection's manifest file.
	manifestSuffix = ".manifest.json"

	// segmentTargetDocs sizes automatic segmentation: one segment per this
	// many documents, up to maxSegments.
	segmentTargetDocs = 4096

	// maxSegments caps the segment count; two digits in the file names
	// bound it below 100, and beyond a few dozen segments per-file overhead
	// outweighs parallelism.
	maxSegments = 64
)

// segmentFileRe recognizes segment file names: <root>.<2+ digits>.jsonl.
var segmentFileRe = regexp.MustCompile(`^(.+)\.(\d{2,})\.jsonl$`)

// segmentManifest is the on-disk manifest of one segmented collection.
type segmentManifest struct {
	Version    int    `json:"version"`
	Collection string `json:"collection"`
	Docs       int    `json:"docs"`
	// Stride records the stable-layout document stride the save used, 0 for
	// the balanced partition. Dirty-segment saves reuse old segments only
	// when the recorded stride equals their own — the guarantee that both
	// generations assign identical [lo, hi) ranges to identical indexes.
	Stride   int           `json:"stride,omitempty"`
	Segments []segmentInfo `json:"segments"`
}

// segmentInfo describes one segment file; Bytes and CRC32 let the loader
// detect torn or mixed-generation segments before any document is decoded.
type segmentInfo struct {
	File  string `json:"file"`
	Docs  int    `json:"docs"`
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
}

// SaveOpts configures SaveParallelOpts.
type SaveOpts struct {
	// Workers is the encode pool size; <= 0 selects GOMAXPROCS. The worker
	// count never changes the bytes on disk.
	Workers int
	// Segments fixes the per-collection segment count; <= 0 derives it from
	// the document count (one segment per segmentTargetDocs documents,
	// capped at maxSegments).
	Segments int
	// Stride, when > 0, replaces the balanced partition with a stable one:
	// segment i holds documents [i*Stride, (i+1)*Stride), uncapped segment
	// count. The layout of a document then depends only on its insertion
	// position — growing a collection changes the tail segments and leaves
	// every earlier one byte-identical — which is the precondition for Dirty
	// saves reusing untouched segments. Stride wins over Segments.
	Stride int
	// Dirty, when non-nil, switches collections it names into dirty-segment
	// mode: only segments containing a listed document id (or whose layout
	// slot changed) are rewritten, the rest keep their on-disk bytes and the
	// manifest re-stamps around them. Collections absent from the map are
	// fully rewritten as usual. Correctness contract: the set must cover
	// every document whose encoded bytes changed since the previous save of
	// the same directory, and that save must have used the same Stride
	// (core.Delta.DirtyIDs satisfies the former; a differing or unknown
	// previous layout is detected and falls back to a full rewrite). Dirty
	// mode requires Stride > 0 — without a stable layout every boundary may
	// shift — and is ignored otherwise.
	Dirty map[string]map[string]bool
	// Observer receives the docstore_* persistence counters; nil drops them.
	Observer counter.Sink
	// Provenance, when non-nil, receives every collection's committed
	// segment layout — including SHA-256 digests of freshly written
	// segments, computed from the encode buffers on the save's worker pool —
	// so the provenance layer can stamp a verifiable corpus record without
	// re-reading any file. See ProvenanceSink.
	Provenance ProvenanceSink
	// FS substitutes the filesystem the save runs on; nil selects OSFS.
	// The conformance harness injects failures here.
	FS FS
}

// LoadOpts configures LoadParallelOpts.
type LoadOpts struct {
	// Workers is the decode pool size; <= 0 selects GOMAXPROCS.
	Workers int
	// Observer receives the docstore_* persistence counters; nil drops them.
	Observer counter.Sink
	// FS substitutes the filesystem the load reads from; nil selects OSFS.
	FS FS
	// Cache, when non-nil, memoizes decoded segments across loads keyed by
	// the manifest's (file, bytes, CRC32) triple — see SegmentCache for the
	// sharing contract. Unchanged segments of a reload skip both the read
	// and the parse.
	Cache *SegmentCache
}

// validate rejects structurally malformed manifests before any allocation
// or file access is sized from their fields. Found by FuzzLoadSegmented: a
// manifest carrying docs:-1 drove make([]Document, 0, -1) in readSegment
// into a makeslice panic, an absurd docs count drove an unbounded
// allocation, and a file name with path separators let a manifest read
// files outside its own store directory. The crashing inputs are kept as
// regression seeds under testdata/fuzz/FuzzLoadSegmented.
func (m *segmentManifest) validate(manPath string) error {
	if m.Docs < 0 {
		return fmt.Errorf("docstore: %s: manifest promises %d documents", manPath, m.Docs)
	}
	total := 0
	for i, info := range m.Segments {
		if info.Docs < 0 || info.Bytes < 0 {
			return fmt.Errorf("docstore: %s: segment %d promises %d documents in %d bytes",
				manPath, i, info.Docs, info.Bytes)
		}
		// The smallest document line is "{}\n" less the optional trailing
		// newline: two bytes. More documents than bytes/2+1 cannot fit, so
		// the counts are lies and the decode allocation would be sized from
		// them.
		if int64(info.Docs) > info.Bytes/2+1 {
			return fmt.Errorf("docstore: %s: segment %d promises %d documents in %d bytes — impossible",
				manPath, i, info.Docs, info.Bytes)
		}
		if info.File == "" || filepath.Base(info.File) != info.File {
			return fmt.Errorf("docstore: %s: segment %d names %q — segment files must live in the store directory",
				manPath, i, info.File)
		}
		total += info.Docs
	}
	if total != m.Docs {
		return fmt.Errorf("docstore: %s: manifest promises %d documents, segments sum to %d",
			manPath, m.Docs, total)
	}
	return nil
}

// segmentBufPool recycles encode/decode buffers across segments and saves.
var segmentBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// SaveParallelOpts persists every collection into dir (created if missing)
// as segment files plus a manifest, encoding segments on a worker pool with
// pooled buffers. The resulting files are byte-identical for any worker
// count, and LoadParallelOpts rebuilds the database document for document,
// in order. A flat file an earlier release left and left-over segments from
// earlier saves are removed after the manifest commits.
func (db *DB) SaveParallelOpts(dir string, opts SaveOpts) error {
	if err := fsOrDefault(opts.FS).MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range db.CollectionNames() {
		if err := db.Collection(name).saveSegmented(dir, opts); err != nil {
			return err
		}
	}
	return nil
}

// segmentCount derives the segment count for docs documents; requested > 0
// overrides the automatic sizing. The count depends only on its inputs —
// never on the worker pool — so the segment layout is deterministic.
func segmentCount(docs, requested int) int {
	n := requested
	if n <= 0 {
		n = (docs + segmentTargetDocs - 1) / segmentTargetDocs
	}
	if n > maxSegments {
		n = maxSegments
	}
	if n > docs {
		n = docs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// segmentFileName names segment i of a collection. %02d widens on its own
// past two digits, matching segmentFileRe's 2-plus-digit pattern, so the
// uncapped Stride layout needs no separate naming scheme.
func segmentFileName(name string, i int) string {
	return fmt.Sprintf("%s.%02d.jsonl", name, i)
}

// segmentRanges partitions docs documents into contiguous [lo, hi) ranges:
// the stable stride layout when stride > 0, otherwise the balanced partition
// into n segments. Both depend only on their inputs, never on the workers.
func segmentRanges(docs, n, stride int) [][2]int {
	if stride > 0 {
		n = (docs + stride - 1) / stride
		if n < 1 {
			n = 1
		}
		out := make([][2]int, n)
		for i := range out {
			lo := i * stride
			hi := lo + stride
			if hi > docs {
				hi = docs
			}
			out[i] = [2]int{lo, hi}
		}
		return out
	}
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{i * docs / n, (i + 1) * docs / n}
	}
	return out
}

// planDirtySave decides, per segment of the new layout, whether the previous
// save's on-disk segment can be kept: reuse[i] holds the old manifest entry
// when segment i needs no rewrite (same file name, same document count —
// with contiguous same-stride ranges that pins the identical [lo, hi) slice
// — present on disk, and no dirty id inside), or a zero entry when it must
// be written. ok = false demands a full rewrite: no previous manifest, a
// manifest this loader would reject, a previous save under a different
// layout (balanced, or another stride), or a shrunken collection — reusing
// across any of those would stitch a mixed-generation manifest together.
// Pure tail growth under the same stride keeps the prefix segments valid:
// document positions never shift, so segment i's range is generation-stable.
func planDirtySave(fsys FS, dir, name string, docs []Document, ranges [][2]int, stride int, dirty map[string]bool) (reuse []segmentInfo, ok bool) {
	manPath := filepath.Join(dir, name+manifestSuffix)
	raw, err := fsys.ReadFile(manPath)
	if err != nil {
		return nil, false
	}
	var man segmentManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, false
	}
	if man.Version != manifestVersion || man.Collection != name ||
		man.validate(manPath) != nil || man.Stride != stride ||
		len(man.Segments) > len(ranges) || man.Docs > len(docs) {
		return nil, false
	}
	onDisk := map[string]bool{}
	if entries, err := fsys.ReadDir(dir); err == nil {
		for _, e := range entries {
			onDisk[e.Name()] = true
		}
	}
	reuse = make([]segmentInfo, len(ranges))
	for i := range man.Segments {
		info := man.Segments[i]
		r := ranges[i]
		if info.File != segmentFileName(name, i) || info.Docs != r[1]-r[0] || !onDisk[info.File] {
			continue
		}
		clean := true
		for _, d := range docs[r[0]:r[1]] {
			if id, _ := d["_id"].(string); dirty[id] {
				clean = false
				break
			}
		}
		if clean {
			reuse[i] = info
		}
	}
	return reuse, true
}

// saveSegmented writes the collection as segments plus a manifest into dir.
func (c *Collection) saveSegmented(dir string, opts SaveOpts) error {
	fsys := fsOrDefault(opts.FS)
	docs := c.Docs()
	ranges := segmentRanges(len(docs), segmentCount(len(docs), opts.Segments), opts.Stride)
	n := len(ranges)

	// Dirty-segment mode: keep previous-generation segments that provably
	// hold the same bytes, rewrite the rest.
	var reuse []segmentInfo
	if dirty, wantDirty := opts.Dirty[c.name]; wantDirty && opts.Stride > 0 {
		var planned bool
		reuse, planned = planDirtySave(fsys, dir, c.name, docs, ranges, opts.Stride, dirty)
		if !planned {
			counter.Add(opts.Observer, CounterDeltaFullRewrites, 1)
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	wantSHA := opts.Provenance != nil
	infos := make([]segmentInfo, n)
	shas := make([][]byte, n)
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var enc docEncoder
			for i := range jobs {
				lo, hi := ranges[i][0], ranges[i][1]
				infos[i], shas[i], errs[i] = writeSegment(
					fsys, filepath.Join(dir, segmentFileName(c.name, i)), docs[lo:hi], wantSHA, &enc)
			}
		}()
	}
	written := 0
	for i := 0; i < n; i++ {
		if reuse != nil && reuse[i].File != "" {
			infos[i] = reuse[i]
			continue
		}
		written++
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Commit: the manifest rename is the single atomic switch to the new
	// state.
	man := segmentManifest{
		Version:    manifestVersion,
		Collection: c.name,
		Docs:       len(docs),
		Stride:     max(opts.Stride, 0),
		Segments:   infos,
	}
	body, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	manPath := filepath.Join(dir, c.name+manifestSuffix)
	tmp := manPath + ".tmp"
	if err := fsys.WriteFile(tmp, append(body, '\n'), 0o644); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, manPath); err != nil {
		fsys.Remove(tmp)
		return err
	}

	// Post-commit cleanup: the flat file and any higher-numbered segments
	// from an earlier, wider save are stale now.
	fsys.Remove(filepath.Join(dir, c.name+".jsonl"))
	removeStaleSegments(fsys, dir, c.name, n)

	if opts.Provenance != nil {
		digests := make([]SegmentDigest, n)
		for i, info := range infos {
			digests[i] = SegmentDigest{
				File: info.File, Docs: info.Docs, Bytes: info.Bytes, CRC32: info.CRC32,
				SHA256: shas[i], Reused: reuse != nil && reuse[i].File != "",
			}
		}
		opts.Provenance.CommitCollection(dir, c.name, max(opts.Stride, 0), len(docs), digests)
	}

	o := opts.Observer
	counter.Add(o, CounterSegmentsWritten, int64(written))
	counter.Add(o, CounterSegmentsReused, int64(n-written))
	var totalBytes int64
	docsWritten := 0
	for i, info := range infos {
		if reuse != nil && reuse[i].File != "" {
			continue
		}
		totalBytes += info.Bytes
		docsWritten += info.Docs
	}
	counter.Add(o, CounterDocsWritten, int64(docsWritten))
	counter.Add(o, CounterBytesWritten, totalBytes)
	return nil
}

// writeSegment encodes docs into a pooled buffer and writes them to path via
// a temporary file and rename. With wantSHA it also returns the SHA-256 of
// the written bytes — computed here, from the exact buffer that hit the
// disk, so a ProvenanceSink never has to read the file back.
func writeSegment(fsys FS, path string, docs []Document, wantSHA bool, enc *docEncoder) (segmentInfo, []byte, error) {
	buf := segmentBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer segmentBufPool.Put(buf)
	for _, d := range docs {
		line, err := enc.encode(d)
		if err != nil {
			return segmentInfo{}, nil, fmt.Errorf("docstore: %s: %w", path, err)
		}
		buf.Write(line)
	}
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		fsys.Remove(tmp)
		return segmentInfo{}, nil, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return segmentInfo{}, nil, err
	}
	var sha []byte
	if wantSHA {
		sum := sha256.Sum256(buf.Bytes())
		sha = sum[:]
	}
	return segmentInfo{
		File:  filepath.Base(path),
		Docs:  len(docs),
		Bytes: int64(buf.Len()),
		CRC32: crc32.ChecksumIEEE(buf.Bytes()),
	}, sha, nil
}

// removeStaleSegments deletes segment files of the collection with index >=
// keep — leftovers from an earlier save that used more segments.
func removeStaleSegments(fsys FS, dir, name string, keep int) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		m := segmentFileRe.FindStringSubmatch(e.Name())
		if m == nil || m[1] != name {
			continue
		}
		if idx, err := strconv.Atoi(m[2]); err == nil && idx >= keep {
			fsys.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// LoadParallelOpts reads every collection in dir that has a manifest into a
// fresh database. Segments decode on a worker pool and are verified against
// the manifest's byte counts and CRCs, so a torn or mixed-generation store
// fails loudly instead of loading silently wrong data; documents then insert
// in segment order, which reproduces the saved document order. Two other
// .jsonl files fail the load rather than load as a missing collection:
// segments no manifest covers (a save that crashed before its manifest
// committed) and a flat <name>.jsonl with no manifest for <name> — the
// single-file layout of earlier releases, no longer read. A flat file next
// to a committed manifest is stale and ignored.
func LoadParallelOpts(dir string, opts LoadOpts) (*DB, error) {
	entries, err := fsOrDefault(opts.FS).ReadDir(dir)
	if err != nil {
		// A missing directory is an empty database, matching the historical
		// glob-based loader; anything else (permissions, not-a-dir) is real.
		if os.IsNotExist(err) {
			return NewDB(), nil
		}
		return nil, err
	}
	manifests := map[string]bool{} // collection root -> has manifest
	var docFiles []string
	for _, e := range entries {
		name := e.Name()
		if root, ok := strings.CutSuffix(name, manifestSuffix); ok && root != "" {
			manifests[root] = true
		} else if filepath.Ext(name) == ".jsonl" {
			docFiles = append(docFiles, name)
		}
	}
	for _, name := range docFiles {
		if m := segmentFileRe.FindStringSubmatch(name); m != nil {
			if !manifests[m[1]] {
				return nil, fmt.Errorf(
					"docstore: %s: segment files without a manifest — a save crashed before committing; restore %s%s or delete the segments",
					dir, m[1], manifestSuffix)
			}
			continue
		}
		if !manifests[strings.TrimSuffix(name, ".jsonl")] {
			return nil, fmt.Errorf(
				"docstore: %s: flat single-file store layout, no longer read — re-import the snapshots into a segmented store",
				filepath.Join(dir, name))
		}
	}

	roots := make([]string, 0, len(manifests))
	for root := range manifests {
		roots = append(roots, root)
	}
	sort.Strings(roots)

	db := NewDB()
	for _, root := range roots {
		if err := db.Collection(root).loadSegmented(dir, opts); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// loadSegmented reads the collection's manifest and segments from dir,
// decoding segments on a worker pool and inserting in segment order.
func (c *Collection) loadSegmented(dir string, opts LoadOpts) error {
	fsys := fsOrDefault(opts.FS)
	manPath := filepath.Join(dir, c.name+manifestSuffix)
	raw, err := fsys.ReadFile(manPath)
	if err != nil {
		return err
	}
	var man segmentManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("docstore: %s: %w", manPath, err)
	}
	if man.Version != manifestVersion {
		return fmt.Errorf("docstore: %s: manifest version %d not supported (want %d)",
			manPath, man.Version, manifestVersion)
	}
	if err := man.validate(manPath); err != nil {
		return err
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(man.Segments))

	segDocs := make([][]Document, len(man.Segments))
	errs := make([]error, len(man.Segments))
	var bytesRead, cached int64
	var bytesMu sync.Mutex
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dec docDecoder
			for i := range jobs {
				var n int64
				segDocs[i], n, errs[i] = readSegment(fsys, dir, man.Segments[i], &dec)
				bytesMu.Lock()
				bytesRead += n
				bytesMu.Unlock()
				if errs[i] == nil && opts.Cache != nil {
					opts.Cache.store(man.Segments[i], segDocs[i])
				}
			}
		}()
	}
	for i := range man.Segments {
		if opts.Cache != nil {
			if docs := opts.Cache.lookup(man.Segments[i]); docs != nil {
				segDocs[i] = docs
				cached++
				continue
			}
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Sequential insert in segment order rebuilds the saved document order.
	total := 0
	for i, docs := range segDocs {
		for j, d := range docs {
			if err := c.Insert(d); err != nil {
				return fmt.Errorf("docstore: %s line %d: %w",
					filepath.Join(dir, man.Segments[i].File), j+1, err)
			}
		}
		total += len(docs)
	}
	if total != man.Docs {
		return fmt.Errorf("docstore: %s: manifest promises %d documents, segments hold %d",
			manPath, man.Docs, total)
	}

	o := opts.Observer
	counter.Add(o, CounterSegmentsRead, int64(len(man.Segments))-cached)
	counter.Add(o, CounterSegmentsCached, cached)
	counter.Add(o, CounterDocsRead, int64(total))
	counter.Add(o, CounterBytesRead, bytesRead)
	return nil
}

// readSegment reads and decodes one segment file, verifying its byte count
// and CRC against the manifest entry first — a mismatch means the segment
// is torn or from a different save generation, and loading it would mix
// states.
func readSegment(fsys FS, dir string, info segmentInfo, dec *docDecoder) ([]Document, int64, error) {
	path := filepath.Join(dir, info.File)
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if int64(len(raw)) != info.Bytes {
		return nil, int64(len(raw)), fmt.Errorf(
			"docstore: %s: %d bytes on disk, manifest promises %d — torn or mixed-generation segment",
			path, len(raw), info.Bytes)
	}
	if crc := crc32.ChecksumIEEE(raw); crc != info.CRC32 {
		return nil, int64(len(raw)), fmt.Errorf(
			"docstore: %s: CRC mismatch (%08x on disk, manifest promises %08x) — torn or mixed-generation segment",
			path, crc, info.CRC32)
	}
	docs := make([]Document, 0, info.Docs)
	line := 0
	for len(raw) > 0 {
		nl := bytes.IndexByte(raw, '\n')
		var rec []byte
		if nl < 0 {
			rec, raw = raw, nil
		} else {
			rec, raw = raw[:nl], raw[nl+1:]
		}
		if len(bytes.TrimSpace(rec)) == 0 {
			continue
		}
		line++
		d, err := dec.decode(rec)
		if err != nil {
			return nil, info.Bytes, fmt.Errorf("docstore: %s line %d: %w", path, line, err)
		}
		docs = append(docs, d)
	}
	if len(docs) != info.Docs {
		return nil, info.Bytes, fmt.Errorf(
			"docstore: %s: %d documents on disk, manifest promises %d — torn or mixed-generation segment",
			path, len(docs), info.Docs)
	}
	return docs, info.Bytes, nil
}
