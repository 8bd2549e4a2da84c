package provenance

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/counter"
	"repro/internal/docstore"
)

// StampOpts configures Save's provenance stamping, separate from the
// docstore.SaveOpts that shape the persistence itself.
type StampOpts struct {
	// Meta is recorded verbatim and hashed into the appended chain link.
	Meta Meta
	// Observer receives the provenance_* counters; nil drops them.
	Observer counter.Sink
}

// sink collects the per-collection commit callbacks of one save. Commits
// arrive sequentially (SaveParallelOpts walks collections one at a time, in
// sorted order; only segment encoding is parallel), so a plain slice is
// enough.
type sink struct {
	commits []commit
}

type commit struct {
	name     string
	stride   int
	docs     int
	segments []docstore.SegmentDigest
}

func (s *sink) CommitCollection(dir, name string, stride, docs int, segments []docstore.SegmentDigest) {
	s.commits = append(s.commits, commit{name: name, stride: stride, docs: docs, segments: segments})
}

// Save persists db into dir through docstore.SaveParallelOpts and stamps the
// directory's provenance record in the same pass. Segment digests come from
// the save's own encode buffers; reused segments of a dirty save carry their
// digest over from the previous record without re-reading the file. If dir
// already holds a valid record, the new save appends a chain link whose
// Parent is the previous head's hash — the record accumulates the store's
// save history. A missing previous record starts a fresh chain; a malformed
// or self-inconsistent one is replaced by a fresh chain and counted as a
// chain reset (it cannot be extended: its head hash does not commit to
// anything trustworthy).
//
// The record bytes depend only on the database contents, the metadata and
// the previous record — never on worker counts or on whether the save ran
// in dirty-segment mode. That invariant is what TestConformanceProvenance
// pins: a full reimport and a delta-applied store produce byte-identical
// provenance.
func Save(db *docstore.DB, dir string, store docstore.SaveOpts, opts StampOpts) (*Record, error) {
	fsys := store.FS
	if fsys == nil {
		fsys = docstore.OSFS
	}

	// Load the previous record before the save overwrites the directory.
	var prev *Record
	reset := false
	if raw, err := fsys.ReadFile(recordPath(dir)); err == nil {
		if p, derr := DecodeRecord(raw); derr == nil && p.SelfCheck() == nil {
			prev = p
		} else {
			reset = true
		}
	}

	snk := &sink{}
	store.Provenance = snk
	if err := db.SaveParallelOpts(dir, store); err != nil {
		return nil, err
	}

	rec, hashed, reused, err := buildRecord(fsys, dir, snk.commits, prev, opts.Meta)
	if err != nil {
		return nil, err
	}
	if err := writeRecord(fsys, dir, rec); err != nil {
		return nil, err
	}

	counter.Add(opts.Observer, CounterStamps, 1)
	counter.Add(opts.Observer, CounterLinks, 1)
	counter.Add(opts.Observer, CounterLeavesHashed, int64(hashed))
	counter.Add(opts.Observer, CounterLeavesReused, int64(reused))
	if reset {
		counter.Add(opts.Observer, CounterChainResets, 1)
	}
	return rec, nil
}

// buildRecord assembles the new record from the save's commit callbacks,
// carrying leaf digests over from prev where the save reused segments and
// extending prev's chain when it exists.
func buildRecord(fsys docstore.FS, dir string, commits []commit, prev *Record, meta Meta) (rec *Record, hashed, reused int, err error) {
	// Digest carryover index: a reused segment is byte-identical to the
	// previous save's, so its previous leaf — matched by every manifest
	// field — still holds the correct SHA-256.
	carry := map[string]string{}
	if prev != nil {
		for _, c := range prev.Collections {
			for _, l := range c.Leaves {
				carry[leafKey(c.Name, l.File, l.Docs, l.Bytes, l.CRC32)] = l.SHA256
			}
		}
	}

	sort.Slice(commits, func(i, j int) bool { return commits[i].name < commits[j].name })
	cols := make([]CollectionRecord, 0, len(commits))
	docs, leaves := 0, 0
	for _, cm := range commits {
		col := CollectionRecord{Name: cm.name, Docs: cm.docs, Stride: cm.stride}
		for _, seg := range cm.segments {
			leaf := Leaf{File: seg.File, Docs: seg.Docs, Bytes: seg.Bytes, CRC32: seg.CRC32}
			switch {
			case len(seg.SHA256) == sha256.Size:
				leaf.SHA256 = hexBytes(seg.SHA256)
				hashed++
			case seg.Reused && carry[leafKey(cm.name, seg.File, seg.Docs, seg.Bytes, seg.CRC32)] != "":
				leaf.SHA256 = carry[leafKey(cm.name, seg.File, seg.Docs, seg.Bytes, seg.CRC32)]
				reused++
			default:
				// Reused segment the previous record does not cover (e.g.
				// the record was reset): fall back to re-reading the file.
				data, rerr := fsys.ReadFile(filepath.Join(dir, seg.File))
				if rerr != nil {
					return nil, 0, 0, fmt.Errorf("provenance: digesting reused segment: %w", rerr)
				}
				leaf.SHA256 = hexDigest(sha256.Sum256(data))
				hashed++
			}
			col.Leaves = append(col.Leaves, leaf)
		}
		man, rerr := fsys.ReadFile(filepath.Join(dir, docstore.ManifestFileName(cm.name)))
		if rerr != nil {
			return nil, 0, 0, fmt.Errorf("provenance: digesting manifest: %w", rerr)
		}
		col.ManifestSHA256 = hexDigest(sha256.Sum256(man))
		col.Root = collectionRoot(col.Leaves)
		docs += col.Docs
		leaves += len(col.Leaves)
		cols = append(cols, col)
	}

	link := Link{
		Seq:      1,
		Root:     corpusRoot(cols),
		Docs:     docs,
		Leaves:   leaves,
		MetaHash: hashMeta(meta),
	}
	var chain []Link
	if prev != nil {
		link.Seq = prev.Head().Seq + 1
		link.Parent = prev.HeadHash()
		chain = append(append([]Link{}, prev.Chain...), link)
	} else {
		chain = []Link{link}
	}

	rec = &Record{Version: RecordVersion, Meta: meta, Chain: chain, Collections: cols}
	if err := rec.Validate(); err != nil {
		return nil, 0, 0, fmt.Errorf("provenance: stamped record is invalid: %w", err)
	}
	if err := rec.SelfCheck(); err != nil {
		return nil, 0, 0, fmt.Errorf("provenance: stamped record is inconsistent: %w", err)
	}
	return rec, hashed, reused, nil
}

// leafKey identifies a segment across saves for digest carryover: collection
// and every manifest field must match.
func leafKey(col, file string, docs int, bytes int64, crc uint32) string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%d\x00%08x", col, file, docs, bytes, crc)
}

// hexBytes renders a raw SHA-256 slice in the canonical lowercase-hex form.
func hexBytes(b []byte) string {
	var d Digest
	copy(d[:], b)
	return hexDigest(d)
}
