// Reproducibility: the paper's versioned-update story (Fig. 2 and §5.1.2).
// Import an initial batch of snapshots, publish version 1, commit the
// stamped store; later verify and reopen it, import new snapshots, publish
// version 2; then reconstruct version 1's records and restrict the data to
// a snapshot range — all without ever deleting a record.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/plaus"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	dir, err := os.MkdirTemp("", "ncvoter-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cfg := synth.DefaultConfig(11, 500)
	cfg.Snapshots = synth.Calendar(2008, 6)
	snaps := synth.Generate(cfg)
	split := len(snaps) / 2

	// Version 1: the first half of the snapshot history.
	ds := core.NewDataset(core.RemoveTrimmed)
	for _, s := range snaps[:split] {
		ds.ImportSnapshot(s)
	}
	plaus.Update(ds)
	v1 := ds.Publish()
	recordsV1 := ds.NumRecords()
	meta := provenance.Meta{Source: "examples/reproducibility", Mode: ds.Mode.String(), Lineage: ds.SnapshotLineage()}
	if _, err := store.Commit(ds, dir, store.CommitOpts{Meta: meta}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("published version %d: %d records, persisted to %s\n", v1, recordsV1, dir)

	// Later, in a new run: verify and load the store, then continue with new
	// snapshots — the update process of Fig. 2 (import -> update
	// statistics -> version & publish).
	ds2, rec, err := store.Open(dir, store.OpenOpts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified store: corpus root %s\n", rec.Root())
	for _, s := range snaps[split:] {
		ds2.ImportSnapshot(s)
	}
	plaus.Update(ds2) // incremental: only new pairs are scored
	v2 := ds2.Publish()
	fmt.Printf("published version %d: %d records (monotone growth: +%d)\n",
		v2, ds2.NumRecords(), ds2.NumRecords()-recordsV1)

	// Reconstruct version 1 from the grown dataset. Only the record count
	// is compared here: the reconstruction still carries history from after
	// version 1 (snapshot dates, insert maps, the version list), so its
	// bytes differ from the published version 1.
	back := ds2.ReconstructVersion(v1)
	fmt.Printf("reconstructed version %d: %d records (expected %d, match=%v)\n",
		v1, back.NumRecords(), recordsV1, back.NumRecords() == recordsV1)

	// Restrict to an arbitrary snapshot interval (§5.1.2).
	from, to := snaps[1].Date, snaps[2].Date
	ranged := ds2.SnapshotRange(from, to)
	fmt.Printf("snapshot range %s..%s: %d records in %d clusters\n",
		from, to, ranged.NumRecords(), ranged.NumClusters())

	if back.NumRecords() != recordsV1 {
		log.Fatal("reproducibility violated: reconstruction mismatch")
	}
	fmt.Println("reconstruction holds: version 1's record count is recovered from the grown store.")
}
