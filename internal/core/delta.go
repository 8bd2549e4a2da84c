package core

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/counter"
	"repro/internal/voter"
)

// Incremental snapshot application (delta ingest): the paper's update
// process (Fig. 2) is monotone — snapshots only ever append record versions
// to existing NCID clusters — yet a naive "continue the store" run still
// pays O(dataset) three times per import: the scoring pass walks every
// cluster's similarity map, the persistence pass rewrites every docstore
// segment, and nothing tells downstream layers which clusters actually
// changed. ApplySnapshotDelta fixes that: it runs the incoming rows through
// the one import loop (so the resulting dataset is bit-identical to
// ImportSnapshotFileParallelOpts of the same file) while classifying every
// row against its cluster's pre-apply state. The classification yields two
// NCID sets:
//
//   - touched: the cluster's stored bytes changed (a record was appended or
//     a snapshot date was stamped onto an existing record) — the unit of
//     docstore segment invalidation (docstore.SaveOpts.Dirty);
//   - dirty: the cluster gained records, i.e. new duplicate pairs exist —
//     the unit of score recomputation (plaus.UpdateDelta, hetero.UpdateDelta
//     via UpdateScores with the dirty NCIDs).
//
// Clusters outside the touched set are provably byte-stable and keep their
// memoized scores, so an import where k% of the records changed costs O(k)
// in rescoring and segment rewriting instead of O(n).

// DeltaOptions tunes ApplySnapshotDelta. The zero value of a field selects
// the default documented on it.
type DeltaOptions struct {
	// Workers sizes the decode pool exactly like IngestOptions.Workers:
	// <= 0 selects GOMAXPROCS, 1 decodes inline. The resulting dataset and
	// delta sets are identical at any count.
	Workers int
	// ChunkBytes is the reader's block size; <= 0 selects the ingest
	// default.
	ChunkBytes int
	// Observer, when non-nil, receives the delta_* and the ingest_*
	// counters.
	Observer counter.Sink
	// Index, when non-nil, is the caller's fingerprint index of the base
	// dataset. ApplySnapshotDelta validates every first-touched cluster
	// against it (a mismatch reports ErrStaleIndex: the delta was computed
	// against a base state the caller did not have) and refreshes the
	// touched entries afterwards, keeping the index current across applies.
	Index *FingerprintIndex
}

// DeltaStats extends the import statistics with the delta classification
// counts.
type DeltaStats struct {
	ImportStats
	// UnchangedRows counts rows that changed nothing: their hash was already
	// in the cluster and the cluster had already seen this snapshot date.
	UnchangedRows int
	// TouchedClusters counts clusters whose stored bytes changed.
	TouchedClusters int
	// DirtyClusters counts clusters that gained records (rescoring scope);
	// always a subset of TouchedClusters.
	DirtyClusters int
}

// Delta is the result of one ApplySnapshotDelta: the statistics plus the
// touched/dirty NCID sets that drive incremental rescoring and dirty-segment
// persistence.
type Delta struct {
	Stats DeltaStats

	touched map[string]bool
	dirty   map[string]bool
	idx     *FingerprintIndex // validation source; nil disables
	stale   []string          // first-touched NCIDs whose index entry mismatched
}

// newDelta returns an empty delta validating against ix (which may be nil).
func newDelta(ix *FingerprintIndex) *Delta {
	return &Delta{touched: map[string]bool{}, dirty: map[string]bool{}, idx: ix}
}

// note records one row's classification. It runs before the row is applied,
// so a first touch can validate the cluster's pre-apply state against the
// fingerprint index.
func (dl *Delta) note(c *Cluster, touch, grow bool) {
	if !touch {
		dl.Stats.UnchangedRows++
		return
	}
	if !dl.touched[c.NCID] {
		if dl.idx != nil && !dl.idx.matches(c.NCID, c) {
			dl.stale = append(dl.stale, c.NCID)
		}
		dl.touched[c.NCID] = true
	}
	if grow {
		dl.dirty[c.NCID] = true
	}
}

// Merge folds another delta (a later snapshot of the same run) into this
// one, accumulating statistics and set unions — the multi-file shape of
// `ncimport -delta`. The zero Delta is a valid accumulator.
func (dl *Delta) Merge(other *Delta) {
	if dl.touched == nil {
		dl.touched = map[string]bool{}
	}
	if dl.dirty == nil {
		dl.dirty = map[string]bool{}
	}
	for id := range other.touched {
		dl.touched[id] = true
	}
	for id := range other.dirty {
		dl.dirty[id] = true
	}
	dl.Stats.Rows += other.Stats.Rows
	dl.Stats.NewRecords += other.Stats.NewRecords
	dl.Stats.NewObjects += other.Stats.NewObjects
	dl.Stats.UnchangedRows += other.Stats.UnchangedRows
	dl.Stats.TouchedClusters = len(dl.touched)
	dl.Stats.DirtyClusters = len(dl.dirty)
}

// touchedIDs returns the NCIDs whose stored bytes changed, sorted.
func (dl *Delta) touchedIDs() []string { return sortedSet(dl.touched) }

// Dirty returns the NCIDs needing score recomputation, sorted. The result
// is never nil: an empty delta rescopes rescoring to nothing, it does not
// fall back to every cluster.
func (dl *Delta) Dirty() []string { return sortedSet(dl.dirty) }

// DirtyIDs returns the per-collection dirty sets for a dirty-segment save of
// the dataset's ToDocDB materialization: the clusters collection rewrites
// only segments holding touched clusters; the meta collection carries no
// entry, so it is fully rewritten (its single document changes on every
// import round). The returned map shares the delta's touched set — treat it
// as read-only.
func (dl *Delta) DirtyIDs() map[string]map[string]bool {
	return map[string]map[string]bool{ClustersCollection: dl.touched}
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// rowChanges classifies one pre-hashed row against its cluster's current
// state: touch reports that applying it will change the cluster's stored
// bytes at all, grow that it will append a record (and therefore new
// duplicate pairs). It mirrors applyRow's branches exactly and must stay in
// lockstep with them.
func rowChanges(c *Cluster, h voter.Hash, date string, mode RemovalMode) (touch, grow bool) {
	idx, seen := c.hashes[h]
	if !seen {
		return true, true
	}
	if mode == RemoveNone {
		// RemoveNone stores every row again, duplicates included.
		return true, true
	}
	e := &c.Records[idx]
	if n := len(e.Snapshots); n == 0 || e.Snapshots[n-1] != date {
		return true, false // snapshot-date stamp only
	}
	return false, false
}

// ApplySnapshotDelta streams one TSV snapshot file into the dataset through
// the one import loop — the resulting dataset, import statistics
// and version bookkeeping are bit-identical to ImportSnapshotFileParallelOpts of
// the same file at any worker count — and returns the delta: which clusters
// changed and which of them need rescoring. The intended input is an
// append-mostly delta file (the new and changed rows since the last
// snapshot), but any snapshot file works; rows that change nothing are
// counted and otherwise free.
//
// On a stale-index error the rows have still been applied (the dataset
// equals a plain import) and the returned delta sets are still correct —
// they come from live classification, not the index — but the caller's
// assumption about the base state was wrong and should be investigated.
func (d *Dataset) ApplySnapshotDelta(path string, opts DeltaOptions) (*Delta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return d.applyDeltaReader(f, opts)
}

// applyDeltaReader is ApplySnapshotDelta over an open stream.
func (d *Dataset) applyDeltaReader(r io.Reader, opts DeltaOptions) (*Delta, error) {
	dl := newDelta(opts.Index)
	st, err := d.importReader(r, IngestOptions{
		Workers:    opts.Workers,
		ChunkBytes: opts.ChunkBytes,
		Observer:   opts.Observer,
	}, dl)
	if err != nil {
		return nil, err
	}
	dl.Stats.ImportStats = st
	dl.Stats.TouchedClusters = len(dl.touched)
	dl.Stats.DirtyClusters = len(dl.dirty)
	o := opts.Observer
	counter.Add(o, "delta_applies", 1)
	counter.Add(o, "delta_rows_decoded", int64(st.Rows))
	counter.Add(o, "delta_rows_unchanged", int64(dl.Stats.UnchangedRows))
	counter.Add(o, "delta_records_added", int64(st.NewRecords))
	counter.Add(o, "delta_new_objects", int64(st.NewObjects))
	counter.Add(o, "delta_clusters_touched", int64(dl.Stats.TouchedClusters))
	counter.Add(o, "delta_clusters_dirty", int64(dl.Stats.DirtyClusters))
	if opts.Index != nil {
		opts.Index.Refresh(d, dl.touchedIDs())
		if len(dl.stale) > 0 {
			sort.Strings(dl.stale)
			return dl, fmt.Errorf("core: %w: %d clusters diverged from the fingerprint index (first: %s)",
				ErrStaleIndex, len(dl.stale), dl.stale[0])
		}
	}
	return dl, nil
}
