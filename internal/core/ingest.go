package core

import (
	"io"
	"os"

	"repro/internal/voter"
)

// IngestObserver receives the counters of a parallel snapshot import:
// rows decoded, records added, duplicates removed, new objects and the
// per-stage stall times of the pipeline (ingest_* names). *obs.Metrics
// implements it, so a serving process importing snapshots exposes ingest on
// GET /metrics next to the request metrics; the dependency points upward
// through this interface because core must not import the serving layers.
type IngestObserver interface {
	AddN(name string, n int64)
}

// IngestOptions tunes ImportSnapshotFileParallelOpts. The zero value of a
// field selects the default documented on it.
type IngestOptions struct {
	// Workers is the decode-worker and cluster-shard count; <= 0 selects
	// GOMAXPROCS, 1 falls back to the sequential import.
	Workers int
	// ChunkBytes is the line-aligned read block size; <= 0 selects 256 KiB.
	ChunkBytes int
	// Observer, when non-nil, receives the pipeline counters.
	Observer IngestObserver
}

// ImportSnapshotFileParallelOpts streams one TSV snapshot file through the
// removal mode on a sharded worker pipeline (see pipeline.go). The resulting
// dataset and ImportStats are identical to ImportSnapshotFile for any
// opts.Workers; <= 0 selects GOMAXPROCS and 1 is exactly the sequential
// import.
func (d *Dataset) ImportSnapshotFileParallelOpts(path string, opts IngestOptions) (ImportStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return ImportStats{}, err
	}
	defer f.Close()
	return d.importReaderParallel(f, opts, nil)
}

// importReaderSequential is the single-goroutine import shared by
// ImportSnapshotFile, the workers == 1 path of the parallel importer and
// (with a non-nil delta) the sequential delta apply.
func (d *Dataset) importReaderSequential(r io.Reader, dl *Delta) (ImportStats, error) {
	var imp *Import
	if _, err := voter.StreamTSV(r, func(rec voter.Record) error {
		if imp == nil {
			imp = d.BeginImport(rec.SnapshotDate())
		}
		imp.addTracked(rec, dl)
		return nil
	}); err != nil {
		return ImportStats{}, err
	}
	if imp == nil {
		imp = d.BeginImport("")
	}
	return imp.Close(), nil
}
