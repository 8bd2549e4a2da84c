// Package core implements the paper's contribution: the pipeline that turns
// historical voter-register snapshots into a labeled duplicate-detection
// test dataset. It covers the four (near-)exact duplicate-removal modes of
// §4, cluster-grouped storage with per-record reproducibility metadata
// (§5.1), incremental version-similarity maps for plausibility and
// heterogeneity scores (§5.2), versioned monotone updates (Fig. 2), and the
// reconstruction of earlier versions and snapshot ranges.
//
// A snapshot file imports through one loop (ImportSnapshotFileParallelOpts,
// see ingest.go) that decodes and hashes rows on a worker pool — inline at
// one worker — and applies them in input order, so the dataset is the same
// at any worker count; ImportSnapshot applies an in-memory snapshot.
package core

import (
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/voter"
)

// RemovalMode selects the duplicate-removal strategy of the import (§4's
// four generation runs).
type RemovalMode int

const (
	// RemoveNone imports every row.
	RemoveNone RemovalMode = iota
	// RemoveExact drops rows whose un-trimmed relevant attributes already
	// exist in the cluster.
	RemoveExact
	// RemoveTrimmed drops rows that are exact after trimming.
	RemoveTrimmed
	// RemovePersonData drops rows whose trimmed person attributes already
	// exist in the cluster.
	RemovePersonData
)

// String names the mode like the paper's Table 2 rows.
func (m RemovalMode) String() string {
	switch m {
	case RemoveNone:
		return "no"
	case RemoveExact:
		return "exact"
	case RemoveTrimmed:
		return "trimming"
	case RemovePersonData:
		return "person data"
	}
	return fmt.Sprintf("RemovalMode(%d)", int(m))
}

// hashMode maps the removal mode to the record hash it deduplicates with;
// RemoveNone still hashes (with the exact hash) for new-record statistics,
// but never drops a row.
func (m RemovalMode) hashMode() voter.HashMode {
	switch m {
	case RemovePersonData:
		return voter.HashPersonData
	case RemoveTrimmed:
		return voter.HashTrimmed
	default:
		return voter.HashExact
	}
}

// RecordEntry is one stored record plus its reproducibility metadata: the
// hash that identified it, the first dataset version containing it, and the
// dates of every snapshot in which the row occurred (§5.1.2).
type RecordEntry struct {
	Rec          voter.Record
	Hash         voter.Hash
	FirstVersion int
	Snapshots    []string
}

// Cluster groups all records of one real-world object (one NCID) together
// with its per-snapshot insert counts and version-similarity maps.
type Cluster struct {
	NCID    string
	Records []RecordEntry
	// Inserted counts how many new records each snapshot contributed
	// (§5.1.2: reconstruction of statistics).
	Inserted map[string]int
	// SimMaps holds one version-similarity map per registered score kind:
	// kind -> version -> newer record index -> older record index -> score.
	// Scores are computed once when the newer record's version is
	// published and never recomputed (§5.2).
	SimMaps map[string]VersionSimMap

	hashes map[voter.Hash]int // hash -> record index
}

// VersionSimMap is a version-similarity map: version -> record index ->
// earlier record index -> similarity.
type VersionSimMap map[int]map[int]map[int]float64

// Pairs returns the number of duplicate pairs in the cluster: n*(n-1)/2.
func (c *Cluster) Pairs() int {
	n := len(c.Records)
	return n * (n - 1) / 2
}

// ImportStats summarizes one snapshot import (the raw material of the
// paper's Table 1).
type ImportStats struct {
	Snapshot   string // snapshot date
	Rows       int    // rows in the snapshot file
	NewRecords int    // rows whose hash was not yet in their cluster
	NewObjects int    // rows introducing a previously unseen NCID
}

// Version describes one published dataset version (Fig. 2's output).
type Version struct {
	Number    int
	Snapshots []string // snapshots imported since the previous version
}

// Dataset is the growing test dataset: duplicate clusters keyed by NCID plus
// version metadata. A Dataset is built by ImportSnapshot + Publish rounds;
// it is not safe for concurrent mutation.
type Dataset struct {
	Mode     RemovalMode
	clusters map[string]*Cluster
	order    []string // NCIDs in first-seen order
	versions []Version
	imports  []ImportStats
	pending  []string // snapshots imported since the last Publish
	// totalRows counts every row ever offered to the importer, including
	// removed duplicates.
	totalRows int
}

// NewDataset returns an empty dataset using the given removal mode.
func NewDataset(mode RemovalMode) *Dataset {
	return &Dataset{Mode: mode, clusters: map[string]*Cluster{}}
}

// currentVersion is the number the next Publish will assign.
func (d *Dataset) currentVersion() int { return len(d.versions) + 1 }

// ImportSnapshot feeds one in-memory snapshot through the removal mode and
// returns its import statistics. Rows with an empty NCID are counted but
// never stored.
func (d *Dataset) ImportSnapshot(s voter.Snapshot) ImportStats {
	imp := d.beginImport(s.Date)
	for _, r := range s.Records {
		imp.add(r)
	}
	return imp.close()
}

// importRound is one in-progress snapshot import: rows are applied one at a
// time, in input order, and close records the round's statistics.
type importRound struct {
	d       *Dataset
	st      ImportStats
	removed int // rows the removal mode dropped
	version int
	closed  bool
}

// beginImport opens an import round for one snapshot date.
func (d *Dataset) beginImport(date string) *importRound {
	return &importRound{d: d, st: ImportStats{Snapshot: date}, version: d.currentVersion()}
}

// add hashes one in-memory row and applies it.
func (imp *importRound) add(r voter.Record) {
	row := ingestRow{rec: r, ncid: []byte(r.NCID())}
	if len(row.ncid) > 0 {
		row.hash = voter.HashRecord(r, imp.d.Mode.hashMode())
	}
	imp.addHashed(&row, nil)
}

// addHashed applies one row whose NCID and removal-mode hash are known — the
// one mutation path of every import. When dl is non-nil the row is first
// classified against its cluster's pre-apply state (see delta.go); the
// classification never changes what applyRow does, which is what keeps
// ApplySnapshotDelta bit-identical to a plain import of the same rows.
func (imp *importRound) addHashed(row *ingestRow, dl *Delta) {
	if imp.closed {
		panic("core: row added to a closed import")
	}
	d := imp.d
	imp.st.Rows++
	d.totalRows++
	if len(row.ncid) == 0 {
		return
	}
	c := d.clusters[string(row.ncid)]
	if c == nil {
		ncid := string(row.ncid)
		c = newCluster(ncid)
		d.clusters[ncid] = c
		d.order = append(d.order, ncid)
		imp.st.NewObjects++
	}
	if dl != nil {
		touch, grow := rowChanges(c, row.hash, imp.st.Snapshot, d.Mode)
		dl.note(c, touch, grow)
	}
	if applyRow(c, row, d.Mode, imp.version, imp.st.Snapshot) {
		imp.st.NewRecords++
	} else if d.Mode != RemoveNone {
		imp.removed++
	}
}

// newCluster returns an empty cluster ready to accept rows.
func newCluster(ncid string) *Cluster {
	return &Cluster{
		NCID:     ncid,
		Inserted: map[string]int{},
		SimMaps:  map[string]VersionSimMap{},
		hashes:   map[voter.Hash]int{},
	}
}

// applyRow applies one pre-hashed row to its cluster under the removal-mode
// semantics and reports whether a new record (a previously unseen hash) was
// stored. Only a row it stores has its record built.
func applyRow(c *Cluster, row *ingestRow, mode RemovalMode, version int, date string) bool {
	idx, seen := c.hashes[row.hash]
	if seen {
		// Known record: remember that this snapshot contained it, too
		// (enables snapshot-range reconstruction), but count nothing new.
		entry := &c.Records[idx]
		if n := len(entry.Snapshots); n == 0 || entry.Snapshots[n-1] != date {
			entry.Snapshots = append(entry.Snapshots, date)
		}
		if mode != RemoveNone {
			return false
		}
		// RemoveNone imports everything; store the row again without
		// registering the duplicate hash again.
	} else {
		c.hashes[row.hash] = len(c.Records)
	}
	rec := row.rec
	if rec.Values == nil {
		// A file row: one copy of its line, split, so the record holds only
		// its own bytes. decodeBlock has validated the line.
		rec, _ = voter.DecodeRow(string(row.line), row.n)
	}
	c.Records = append(c.Records, RecordEntry{
		Rec: rec, Hash: row.hash, FirstVersion: version, Snapshots: []string{date},
	})
	c.Inserted[date]++
	return !seen
}

// close finishes the import round, records its statistics and returns them.
func (imp *importRound) close() ImportStats {
	if imp.closed {
		panic("core: import closed twice")
	}
	imp.closed = true
	imp.d.imports = append(imp.d.imports, imp.st)
	imp.d.pending = append(imp.d.pending, imp.st.Snapshot)
	return imp.st
}

// Publish closes the pending import round as a new version (Fig. 2, step 3)
// and returns its number. Publishing with nothing imported still creates a
// version (the "new statistics are required" trigger).
func (d *Dataset) Publish() int {
	v := Version{Number: d.currentVersion(), Snapshots: d.pending}
	d.versions = append(d.versions, v)
	d.pending = nil
	return v.Number
}

// Versions returns the published versions in order.
func (d *Dataset) Versions() []Version { return d.versions }

// SnapshotLineage flattens the published versions' snapshot dates into one
// import-ordered list — the dataset's update history (Fig. 2), recorded into
// the provenance metadata so a verified corpus also names the snapshots
// that built it.
func (d *Dataset) SnapshotLineage() []string {
	var dates []string
	for _, v := range d.versions {
		dates = append(dates, v.Snapshots...)
	}
	return dates
}

// Imports returns the per-snapshot import statistics in import order.
func (d *Dataset) Imports() []ImportStats { return d.imports }

// NumClusters returns the number of objects (duplicate clusters).
func (d *Dataset) NumClusters() int { return len(d.clusters) }

// NumRecords returns the number of stored records.
func (d *Dataset) NumRecords() int {
	n := 0
	for _, c := range d.clusters {
		n += len(c.Records)
	}
	return n
}

// NumPairs returns the number of duplicate pairs across all clusters.
func (d *Dataset) NumPairs() int {
	n := 0
	for _, c := range d.clusters {
		n += c.Pairs()
	}
	return n
}

// TotalRows returns the number of rows offered to the importer, including
// removed near-exact duplicates.
func (d *Dataset) TotalRows() int { return d.totalRows }

// RemovedRecords returns how many rows the removal mode dropped.
func (d *Dataset) RemovedRecords() int { return d.totalRows - d.NumRecords() }

// Cluster returns the cluster of the given NCID, or nil.
func (d *Dataset) Cluster(ncid string) *Cluster { return d.clusters[ncid] }

// Clusters visits every cluster in first-seen order.
func (d *Dataset) Clusters(fn func(*Cluster) bool) {
	for _, id := range d.order {
		if !fn(d.clusters[id]) {
			return
		}
	}
}

// NCIDs returns the cluster ids in first-seen order.
func (d *Dataset) NCIDs() []string {
	out := make([]string, len(d.order))
	copy(out, d.order)
	return out
}

// MaxClusterSize returns the largest number of records per object.
func (d *Dataset) MaxClusterSize() int {
	m := 0
	for _, c := range d.clusters {
		if len(c.Records) > m {
			m = len(c.Records)
		}
	}
	return m
}

// AvgClusterSize returns the mean number of records per object, 0 for an
// empty dataset.
func (d *Dataset) AvgClusterSize() float64 {
	if len(d.clusters) == 0 {
		return 0
	}
	return float64(d.NumRecords()) / float64(len(d.clusters))
}

// ClusterSizeHistogram returns how many clusters exist per cluster size
// (Fig. 1 of the paper).
func (d *Dataset) ClusterSizeHistogram() map[int]int {
	h := map[int]int{}
	for _, c := range d.clusters {
		h[len(c.Records)]++
	}
	return h
}

// hashHex renders a record hash for storage.
func hashHex(h voter.Hash) string { return hex.EncodeToString(h[:]) }

// sortedKeys returns the keys of a string-keyed map in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
