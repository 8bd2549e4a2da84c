package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/voter"
)

// Property-based tests over randomly generated import sequences: the
// dataset's core invariants must hold for any input.

// randomSnapshot builds a snapshot with up to 12 rows over a tiny
// id/name space so collisions and duplicates occur often.
func randomSnapshot(rng *rand.Rand, date string) voter.Snapshot {
	n := 1 + rng.Intn(12)
	s := voter.Snapshot{Date: date}
	for i := 0; i < n; i++ {
		r := voter.NewRecord()
		r.SetName("ncid", fmt.Sprintf("ID%d", rng.Intn(6)))
		r.SetName("first_name", []string{"A", "B", "C"}[rng.Intn(3)])
		r.SetName("last_name", []string{"X", "Y"}[rng.Intn(2)])
		r.SetName("snapshot_dt", date)
		r.SetName("age", fmt.Sprint(20+rng.Intn(3)))
		s.Records = append(s.Records, r)
	}
	return s
}

func TestInvariantsUnderRandomImports(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDataset(RemoveTrimmed)
		prevRecords := 0
		for v := 0; v < 4; v++ {
			date := fmt.Sprintf("20%02d-01-01", 10+v)
			st := d.ImportSnapshot(randomSnapshot(rng, date))
			d.Publish()
			// Monotone growth: records never shrink.
			if d.NumRecords() < prevRecords {
				return false
			}
			prevRecords = d.NumRecords()
			// Stats arithmetic: new objects <= new records <= rows.
			if st.NewObjects > st.NewRecords || st.NewRecords > st.Rows {
				return false
			}
		}
		// Total rows = kept + removed.
		if d.TotalRows() != d.NumRecords()+d.RemovedRecords() {
			return false
		}
		// Pair arithmetic: sum over clusters of C(n,2).
		pairs := 0
		d.Clusters(func(c *Cluster) bool {
			n := len(c.Records)
			pairs += n * (n - 1) / 2
			return true
		})
		if pairs != d.NumPairs() {
			return false
		}
		// Reconstructing the latest version is the identity.
		last := len(d.Versions())
		full := d.ReconstructVersion(last)
		if full.NumRecords() != d.NumRecords() || full.NumClusters() != d.NumClusters() {
			return false
		}
		// Versions are nested: v1 ⊆ v2 ⊆ ... ⊆ full.
		prev := 0
		for v := 1; v <= last; v++ {
			nv := d.ReconstructVersion(v).NumRecords()
			if nv < prev {
				return false
			}
			prev = nv
		}
		// The unbounded snapshot range is the identity as well.
		all := d.SnapshotRange("0000-01-01", "9999-12-31")
		return all.NumRecords() == d.NumRecords()
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestReimportIsIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSnapshot(rng, "2010-01-01")
		d := NewDataset(RemoveTrimmed)
		d.ImportSnapshot(s)
		before := d.NumRecords()
		// Re-importing the same snapshot adds no records.
		st := d.ImportSnapshot(s)
		return st.NewRecords == 0 && d.NumRecords() == before
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDocRoundTripPreservesEverythingRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDataset(RemoveTrimmed)
		for v := 0; v < 3; v++ {
			d.ImportSnapshot(randomSnapshot(rng, fmt.Sprintf("20%02d-01-01", 10+v)))
			d.Publish()
		}
		got, err := FromDocDBParallel(d.ToDocDB(), 1)
		if err != nil {
			return false
		}
		if got.NumRecords() != d.NumRecords() || got.NumClusters() != d.NumClusters() ||
			got.NumPairs() != d.NumPairs() || got.TotalRows() != d.TotalRows() {
			return false
		}
		for _, id := range d.NCIDs() {
			a, b := d.Cluster(id), got.Cluster(id)
			if len(a.Records) != len(b.Records) {
				return false
			}
			for i := range a.Records {
				if a.Records[i].Hash != b.Records[i].Hash ||
					a.Records[i].FirstVersion != b.Records[i].FirstVersion ||
					len(a.Records[i].Snapshots) != len(b.Records[i].Snapshots) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
