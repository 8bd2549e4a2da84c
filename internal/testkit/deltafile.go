package testkit

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/voter"
)

// WriteDeltaFile synthesizes an append-mostly delta snapshot file against
// the current state of d — the input shape ApplySnapshotDelta is built for —
// and returns its path plus the number of clusters it changes. The delta,
// scoring and provenance oracles all derive their ladders from it, so the
// "changed fraction" means the same thing in each.
//
// fraction > 0 selects round(fraction·clusters) clusters (at least one) and
// emits one mutated copy of each selected cluster's first record: last name
// suffixed with the new date and snapshot_dt set to date, which yields a
// previously unseen hash and thus a new record version. contiguous false
// spaces the selection evenly over first-seen order (worst-case segment
// locality, the oracle's choice), and every seventh unselected cluster
// contributes an unmutated replay of its first record, exercising the
// date-stamp-only (touched, not dirty) path. contiguous true selects one run
// starting a third of the way in with no replay rows (an update batch with
// locality — segment rewrites stay proportional to the fraction). date must be a snapshot date the dataset has not seen.
//
// fraction == 0 replays, under the dataset's most recent import date, every
// record whose snapshot trail already ends on that date — a pure no-op file:
// every row decodes to a known hash with its date already stamped.
//
// Everything is a pure function of (d, date, fraction): no randomness.
func WriteDeltaFile(dir string, d *core.Dataset, date string, fraction float64, contiguous bool) (path string, changed int, err error) {
	var recs []voter.Record
	fileDate := date
	ids := d.NCIDs()
	if fraction <= 0 {
		imports := d.Imports()
		if len(imports) == 0 {
			return "", 0, fmt.Errorf("testkit: delta file against an empty dataset")
		}
		fileDate = imports[len(imports)-1].Snapshot
		for _, id := range ids {
			c := d.Cluster(id)
			for i := range c.Records {
				e := &c.Records[i]
				if n := len(e.Snapshots); n > 0 && e.Snapshots[n-1] == fileDate {
					recs = append(recs, reDated(e.Rec, fileDate))
				}
			}
		}
	} else {
		k := int(float64(fraction*float64(len(ids))) + 0.5)
		if k < 1 {
			k = 1
		}
		if k > len(ids) {
			k = len(ids)
		}
		selected := make(map[int]bool, k)
		if contiguous {
			start := len(ids) / 3
			for i := 0; i < k; i++ {
				selected[(start+i)%len(ids)] = true
			}
		} else {
			for i := 0; i < k; i++ {
				selected[i*len(ids)/k] = true
			}
		}
		for i, id := range ids {
			c := d.Cluster(id)
			if len(c.Records) == 0 {
				continue
			}
			if selected[i] {
				r := reDated(c.Records[0].Rec, date)
				r.Values[voter.IdxLastName] += " " + date
				recs = append(recs, r)
				changed++
			} else if !contiguous && i%7 == 0 {
				recs = append(recs, reDated(c.Records[0].Rec, date))
			}
		}
	}
	path, err = voter.WriteSnapshotFile(dir, voter.Snapshot{Date: fileDate, Records: recs})
	return path, changed, err
}

// reDated copies a record with its snapshot date replaced, leaving the
// original untouched.
func reDated(r voter.Record, date string) voter.Record {
	out := r.Clone()
	out.Values[voter.IdxSnapshotDate] = date
	return out
}
