package provenance

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"

	"repro/internal/docstore"
)

// On-disk shape: one provenance.json per store directory, written by Save
// next to the docstore manifests it covers. The file is attacker-visible
// state exactly like the segment manifests, so DecodeRecord validates every
// field before anything is sized, hashed or opened from it, and the decoder
// must never panic on arbitrary bytes (FuzzProvenanceDecode enforces this).
//
// All hashing is over canonical JSON: the structs below have no maps, so
// encoding/json marshals their fields in declaration order and two records
// with equal contents always serialize to equal bytes. That is what makes
// the differential oracle's byte-identity guarantee (full reimport vs delta
// apply) possible, and what makes link hashes well-defined.

const (
	// RecordVersion is bumped on schema changes; verifiers reject versions
	// they do not understand instead of guessing.
	RecordVersion = 1

	// RecordFile names the provenance record inside a store directory.
	RecordFile = "provenance.json"

	// Structural caps: a hostile record cannot promise absurd counts that
	// would drive the verifier into unbounded work. Real corpora sit orders
	// of magnitude below all three.
	maxChainLinks     = 1 << 16
	maxCollections    = 1 << 12
	maxLeavesPerTable = 1 << 20
)

// GeneratorInfo pins the synthetic-register generator run that produced the
// snapshot files behind a corpus: same tool, seed and parameters mean the
// same bytes (the paper's reproducibility contract). ncgen writes it as
// generator.json next to the snapshots; ncimport carries it into the
// provenance record.
type GeneratorInfo struct {
	Tool        string  `json:"tool,omitempty"`
	Seed        int64   `json:"seed"`
	Voters      int     `json:"voters,omitempty"`
	Years       int     `json:"years,omitempty"`
	Errors      string  `json:"errors,omitempty"`
	UnsoundRate float64 `json:"unsoundRate,omitempty"`
}

// Meta is the non-layout half of a provenance record: where the corpus came
// from. It is hashed into every chain link (MetaHash), so tampering with
// the recorded seed or lineage breaks the chain walk.
type Meta struct {
	// Source names the stamping tool ("ncimport", "ncpollute").
	Source string `json:"source,omitempty"`
	// Mode is the duplicate-removal mode of the dataset.
	Mode string `json:"mode,omitempty"`
	// Lineage lists every imported snapshot date in import order across all
	// published versions — the paper's Fig. 2 update history.
	Lineage []string `json:"lineage,omitempty"`
	// Generator pins the ncgen run behind the snapshots, when known.
	Generator *GeneratorInfo `json:"generator,omitempty"`
	// SourceRoot is the corpus root of the store a derived store was made
	// from (ncpollute); empty for a store imported from snapshots.
	SourceRoot string `json:"sourceRoot,omitempty"`
}

// Leaf is one segment file's digest entry. Its canonical JSON is the Merkle
// leaf data, so every field — name, counts, CRC and SHA-256 — is covered by
// the collection root: tampering any of them inside the record breaks the
// record's self-consistency, while tampering the file on disk breaks the
// digest comparison. The two failure modes stay distinguishable, which is
// how VerifyDir pinpoints *what* was corrupted.
type Leaf struct {
	File   string `json:"file"`
	Docs   int    `json:"docs"`
	Bytes  int64  `json:"bytes"`
	CRC32  uint32 `json:"crc32"`
	SHA256 string `json:"sha256"`
}

// CollectionRecord is the per-collection slice of the record: the leaves of
// the collection's segments plus their Merkle root and the digest of the
// docstore manifest that commits them.
type CollectionRecord struct {
	Name           string `json:"name"`
	Docs           int    `json:"docs"`
	Stride         int    `json:"stride,omitempty"`
	ManifestSHA256 string `json:"manifestSha256"`
	Root           string `json:"root"`
	Leaves         []Leaf `json:"leaves"`
}

// collectionHeader is the part of a CollectionRecord that feeds the corpus
// Merkle tree — everything except the leaves, which are already committed
// through Root.
type collectionHeader struct {
	Name           string `json:"name"`
	Docs           int    `json:"docs"`
	Stride         int    `json:"stride,omitempty"`
	ManifestSHA256 string `json:"manifestSha256"`
	Root           string `json:"root"`
}

// Link is one chain entry: the corpus state after one save. Parent is the
// hash of the previous link (empty for the genesis link), so the chain
// commits to the whole save history; MetaHash commits the metadata current
// at that save. Links deliberately exclude anything that depends on *how*
// the save ran (worker counts, dirty-vs-full) — a delta-applied store and a
// full reimport of the same data produce byte-identical links.
type Link struct {
	Seq      int    `json:"seq"`
	Parent   string `json:"parent,omitempty"`
	Root     string `json:"root"`
	Docs     int    `json:"docs"`
	Leaves   int    `json:"leaves"`
	MetaHash string `json:"metaHash"`
}

// Record is the full provenance record of one store directory.
type Record struct {
	Version     int                `json:"version"`
	Meta        Meta               `json:"meta"`
	Chain       []Link             `json:"chain"`
	Collections []CollectionRecord `json:"collections"`
}

// hexDigest renders a digest in the canonical lowercase-hex form.
func hexDigest(d Digest) string { return hex.EncodeToString(d[:]) }

// canonicalJSON marshals a map-free struct; failure is a programming bug.
func canonicalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("provenance: canonical marshal failed: " + err.Error())
	}
	return b
}

// hashMeta returns the canonical hash of a Meta block.
func hashMeta(m Meta) string {
	return hexDigest(sha256.Sum256(canonicalJSON(m)))
}

// hashLink returns the canonical hash of a chain link — what the next
// link's Parent field must carry.
func hashLink(l Link) string {
	return hexDigest(sha256.Sum256(canonicalJSON(l)))
}

// leafData renders the Merkle leaf input of one segment entry.
func leafData(l Leaf) []byte { return canonicalJSON(l) }

// collectionRoot computes the Merkle root over a collection's leaves.
func collectionRoot(leaves []Leaf) string {
	data := make([][]byte, len(leaves))
	for i, l := range leaves {
		data[i] = leafData(l)
	}
	return hexDigest(MerkleRoot(data))
}

// corpusRoot computes the corpus Merkle root over the collection headers.
// The collection roots must already be filled in.
func corpusRoot(cols []CollectionRecord) string {
	data := make([][]byte, len(cols))
	for i, c := range cols {
		data[i] = canonicalJSON(collectionHeader{
			Name: c.Name, Docs: c.Docs, Stride: c.Stride,
			ManifestSHA256: c.ManifestSHA256, Root: c.Root,
		})
	}
	return hexDigest(MerkleRoot(data))
}

// Head returns the last chain link — the current corpus state.
func (r *Record) Head() Link { return r.Chain[len(r.Chain)-1] }

// HeadHash returns the hash of the head link: the single value a consumer
// pins out of band to make the whole record (and therefore the whole
// corpus) tamper-evident.
func (r *Record) HeadHash() string { return hashLink(r.Head()) }

// Root returns the corpus Merkle root the head link commits to.
func (r *Record) Root() string { return r.Head().Root }

// isHex64 reports whether s is a 64-char lowercase-hex SHA-256 rendering.
func isHex64(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// storeLocalName reports whether name is a plain file name inside the store
// directory — the same rule the docstore manifest validator enforces, so a
// hostile record can never make the verifier read outside its own store.
func storeLocalName(name string) bool {
	return name != "" && name != "." && name != ".." && filepath.Base(name) == name
}

// Validate rejects structurally malformed records before any digest is
// recomputed or any file is opened from their fields. It checks shape only;
// SelfCheck checks hash consistency.
func (r *Record) Validate() error {
	if r.Version != RecordVersion {
		return fmt.Errorf("provenance: record version %d not supported (want %d)", r.Version, RecordVersion)
	}
	if len(r.Chain) == 0 {
		return fmt.Errorf("provenance: record has no chain links")
	}
	if len(r.Chain) > maxChainLinks {
		return fmt.Errorf("provenance: chain promises %d links (cap %d)", len(r.Chain), maxChainLinks)
	}
	if len(r.Collections) > maxCollections {
		return fmt.Errorf("provenance: record promises %d collections (cap %d)", len(r.Collections), maxCollections)
	}
	for i, l := range r.Chain {
		if l.Seq != i+1 {
			return fmt.Errorf("provenance: chain link %d carries seq %d", i, l.Seq)
		}
		if i == 0 && l.Parent != "" {
			return fmt.Errorf("provenance: genesis link carries a parent hash")
		}
		if i > 0 && !isHex64(l.Parent) {
			return fmt.Errorf("provenance: chain link %d parent is not a SHA-256 digest", i+1)
		}
		if !isHex64(l.Root) || !isHex64(l.MetaHash) {
			return fmt.Errorf("provenance: chain link %d carries a malformed digest", i+1)
		}
		if l.Docs < 0 || l.Leaves < 0 {
			return fmt.Errorf("provenance: chain link %d promises %d documents in %d leaves", i+1, l.Docs, l.Leaves)
		}
	}
	seen := map[string]bool{}
	for i, c := range r.Collections {
		if !storeLocalName(c.Name) {
			return fmt.Errorf("provenance: collection %d names %q — collections must live in the store directory", i, c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("provenance: collection %q listed twice", c.Name)
		}
		seen[c.Name] = true
		if i > 0 && r.Collections[i-1].Name > c.Name {
			return fmt.Errorf("provenance: collections not sorted (%q after %q)", c.Name, r.Collections[i-1].Name)
		}
		if c.Docs < 0 || c.Stride < 0 {
			return fmt.Errorf("provenance: collection %q promises %d documents at stride %d", c.Name, c.Docs, c.Stride)
		}
		if !isHex64(c.ManifestSHA256) || !isHex64(c.Root) {
			return fmt.Errorf("provenance: collection %q carries a malformed digest", c.Name)
		}
		if len(c.Leaves) > maxLeavesPerTable {
			return fmt.Errorf("provenance: collection %q promises %d leaves (cap %d)", c.Name, len(c.Leaves), maxLeavesPerTable)
		}
		total := 0
		files := map[string]bool{}
		for j, l := range c.Leaves {
			if !storeLocalName(l.File) {
				return fmt.Errorf("provenance: collection %q leaf %d names %q — segment files must live in the store directory", c.Name, j, l.File)
			}
			if files[l.File] {
				return fmt.Errorf("provenance: collection %q lists leaf %q twice", c.Name, l.File)
			}
			files[l.File] = true
			if l.Docs < 0 || l.Bytes < 0 {
				return fmt.Errorf("provenance: collection %q leaf %q promises %d documents in %d bytes", c.Name, l.File, l.Docs, l.Bytes)
			}
			if !isHex64(l.SHA256) {
				return fmt.Errorf("provenance: collection %q leaf %q carries a malformed digest", c.Name, l.File)
			}
			total += l.Docs
		}
		if total != c.Docs {
			return fmt.Errorf("provenance: collection %q promises %d documents, leaves sum to %d", c.Name, c.Docs, total)
		}
	}
	return nil
}

// SelfCheck verifies the record's internal hash consistency without reading
// any corpus file: the chain links hash into each other, the head link's
// MetaHash matches the recorded metadata, every collection root matches its
// leaves, and the head root matches the collection headers. A record that
// passes SelfCheck but fails the disk comparison was stored over a tampered
// corpus; a record that fails SelfCheck was itself tampered. VerifyDir uses
// that distinction to blame the right file.
func (r *Record) SelfCheck() error {
	parent := ""
	for i, l := range r.Chain {
		if l.Parent != parent {
			return fmt.Errorf("provenance: chain link %d does not extend link %d (parent hash mismatch)", l.Seq, i)
		}
		parent = hashLink(l)
	}
	head := r.Head()
	if got := hashMeta(r.Meta); head.MetaHash != got {
		return fmt.Errorf("provenance: metadata does not match the head link's meta hash")
	}
	docs, leaves := 0, 0
	for _, c := range r.Collections {
		if got := collectionRoot(c.Leaves); got != c.Root {
			return fmt.Errorf("provenance: collection %q root does not match its leaves", c.Name)
		}
		docs += c.Docs
		leaves += len(c.Leaves)
	}
	if got := corpusRoot(r.Collections); got != head.Root {
		return fmt.Errorf("provenance: corpus root does not match the collection records")
	}
	if head.Docs != docs {
		return fmt.Errorf("provenance: head link promises %d documents, collections hold %d", head.Docs, docs)
	}
	if head.Leaves != leaves {
		return fmt.Errorf("provenance: head link promises %d leaves, collections hold %d", head.Leaves, leaves)
	}
	return nil
}

// DecodeRecord parses and validates a record from raw bytes. It never
// panics on hostile input and never sizes an allocation from an
// attacker-controlled number.
func DecodeRecord(data []byte) (*Record, error) {
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("provenance: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// Encode renders the record in its canonical on-disk form.
func (r *Record) Encode() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic("provenance: record marshal failed: " + err.Error())
	}
	return append(b, '\n')
}

// recordPath returns the record file path inside a store directory.
func recordPath(dir string) string { return filepath.Join(dir, RecordFile) }

// LoadRecord reads and validates the record of a store directory through
// fsys (nil selects the OS filesystem). The raw bytes are returned
// alongside so callers (the serving API) can expose the exact stored form.
func LoadRecord(fsys docstore.FS, dir string) (*Record, []byte, error) {
	if fsys == nil {
		fsys = docstore.OSFS
	}
	raw, err := fsys.ReadFile(recordPath(dir))
	if err != nil {
		return nil, nil, err
	}
	rec, err := DecodeRecord(raw)
	if err != nil {
		return nil, raw, fmt.Errorf("%s: %w", recordPath(dir), err)
	}
	return rec, raw, nil
}

// writeRecord persists the record atomically (write-then-rename), the same
// discipline as the docstore manifests.
func writeRecord(fsys docstore.FS, dir string, r *Record) error {
	path := recordPath(dir)
	tmp := path + ".tmp"
	if err := fsys.WriteFile(tmp, r.Encode(), 0o644); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return nil
}
