package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
)

// ErrStaleIndex reports that a fingerprint index disagrees with the dataset
// it claims to describe — the delta a caller is applying was computed
// against a different base state.
var ErrStaleIndex = errors.New("stale fingerprint index")

// ClusterFP is the per-NCID fingerprint of a cluster's reproducibility
// state: how many record versions it holds, the latest snapshot date that
// confirmed any of them, and a fold over every record's identity metadata
// (hash, first version, snapshot-list length, last snapshot date). Two
// clusters with equal fingerprints hold the same records at the same
// versions with the same last-seen stamps; record values themselves need no
// folding because a record's content is fixed by its hash.
type ClusterFP struct {
	Records  int
	LastSeen string
	FP       uint64
}

// FingerprintIndex maps every NCID of a dataset to its ClusterFP. It is the
// delta layer's memory of the base state: ApplySnapshotDelta validates each
// first-touched cluster against it (catching a caller whose index belongs
// to a different dataset generation) and refreshes the touched entries
// afterwards, so one index can follow a dataset across many delta rounds.
// The index is derived state — the correctness of the touched/dirty sets
// never depends on it (they come from live pre-apply classification).
type FingerprintIndex struct {
	fps map[string]ClusterFP
}

// BuildFingerprintIndex fingerprints every cluster of the dataset.
func BuildFingerprintIndex(d *Dataset) *FingerprintIndex {
	ix := &FingerprintIndex{fps: make(map[string]ClusterFP, d.NumClusters())}
	d.Clusters(func(c *Cluster) bool {
		ix.fps[c.NCID] = clusterFP(c)
		return true
	})
	return ix
}

// Len returns the number of indexed clusters.
func (ix *FingerprintIndex) Len() int { return len(ix.fps) }

// Refresh re-fingerprints the given NCIDs against the dataset's current
// state. NCIDs without a cluster are dropped from the index.
func (ix *FingerprintIndex) Refresh(d *Dataset, ncids []string) {
	for _, id := range ncids {
		if c := d.Cluster(id); c != nil {
			ix.fps[id] = clusterFP(c)
		} else {
			delete(ix.fps, id)
		}
	}
}

// Diff returns the NCIDs whose fingerprints differ between the two indexes
// (including NCIDs present in only one), sorted. Diffing the base index
// against a post-apply rebuild yields exactly the clusters whose stored
// state changed — the specification the delta tests pin touchedIDs against.
func (ix *FingerprintIndex) Diff(other *FingerprintIndex) []string {
	out := map[string]bool{}
	for id, fp := range ix.fps {
		if ofp, ok := other.fps[id]; !ok || ofp != fp {
			out[id] = true
		}
	}
	for id := range other.fps {
		if _, ok := ix.fps[id]; !ok {
			out[id] = true
		}
	}
	return sortedSet(out)
}

// Verify checks the whole index against the dataset and returns an
// ErrStaleIndex error naming the first divergent NCID, or nil.
func (ix *FingerprintIndex) Verify(d *Dataset) error {
	if ix.Len() != d.NumClusters() {
		return fmt.Errorf("core: %w: index holds %d clusters, dataset %d",
			ErrStaleIndex, ix.Len(), d.NumClusters())
	}
	var bad []string
	d.Clusters(func(c *Cluster) bool {
		if !ix.matches(c.NCID, c) {
			bad = append(bad, c.NCID)
		}
		return true
	})
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("core: %w: %d clusters diverged (first: %s)",
			ErrStaleIndex, len(bad), bad[0])
	}
	return nil
}

// matches reports whether the index's view of an NCID agrees with the
// cluster's current state. A brand-new cluster (no records yet) matches iff
// the NCID is unindexed.
func (ix *FingerprintIndex) matches(ncid string, c *Cluster) bool {
	fp, ok := ix.fps[ncid]
	if c == nil || len(c.Records) == 0 {
		return !ok
	}
	return ok && fp == clusterFP(c)
}

// clusterFP folds one cluster's identity metadata into its fingerprint.
func clusterFP(c *Cluster) ClusterFP {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(n int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
	}
	fp := ClusterFP{Records: len(c.Records)}
	for i := range c.Records {
		e := &c.Records[i]
		h.Write(e.Hash[:])
		writeInt(e.FirstVersion)
		writeInt(len(e.Snapshots))
		var last string
		if n := len(e.Snapshots); n > 0 {
			last = e.Snapshots[n-1]
		}
		h.Write([]byte(last))
		if last > fp.LastSeen {
			fp.LastSeen = last
		}
	}
	fp.FP = h.Sum64()
	return fp
}
