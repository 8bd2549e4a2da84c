package bench

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/histogram"
	"repro/internal/synth"
)

// IngestPoint is one measurement of the ingest-throughput experiment: a full
// trimming-mode import of the workspace corpus at one worker count.
type IngestPoint struct {
	Workers       int
	Rows          int
	Seconds       float64
	RowsPerSecond float64
	Speedup       float64 // vs. the workers=1 (sequential) point
	PerFileP50MS  float64 // per-snapshot-file import latency quantiles
	PerFileP90MS  float64
	Identical     bool // dataset deep-equal to the sequential baseline
}

// DefaultIngestWorkers is the worker ladder of the experiment. GOMAXPROCS
// is appended when it is not already present.
func DefaultIngestWorkers() []int {
	ws := []int{1, 2, 4}
	maxprocs := runtime.GOMAXPROCS(0)
	for _, w := range ws {
		if w == maxprocs {
			return ws
		}
	}
	return append(ws, maxprocs)
}

// RunIngestThroughput writes the scale's register to disk once and imports
// it at each worker count through core.ImportSnapshotFileParallelOpts, reporting
// rows/sec, speedup over the sequential import, per-file latency quantiles
// (via the shared Histogram) and whether the resulting dataset is identical
// to the sequential baseline — the paper's 507 M-row framing says ingest,
// not matching, is the first bottleneck at register scale.
func RunIngestThroughput(scale Scale, workerCounts []int, out io.Writer) ([]IngestPoint, error) {
	if len(workerCounts) == 0 {
		workerCounts = DefaultIngestWorkers()
	}
	dir, err := os.MkdirTemp("", "ncingest")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	cfg := synth.DefaultConfig(scale.Seed, scale.InitialVoters)
	cfg.Snapshots = synth.Calendar(2008, scale.Years)
	paths, err := synth.WriteAllParallel(cfg, dir, 0)
	if err != nil {
		return nil, err
	}

	importAll := func(workers int) (*core.Dataset, []float64, float64, error) {
		ds := core.NewDataset(core.RemoveTrimmed)
		perFileMS := make([]float64, 0, len(paths))
		start := time.Now()
		for _, p := range paths {
			fs := time.Now()
			if _, err := ds.ImportSnapshotFileParallelOpts(p, core.IngestOptions{Workers: workers}); err != nil {
				return nil, nil, 0, fmt.Errorf("%s: %w", p, err)
			}
			perFileMS = append(perFileMS, float64(time.Since(fs))/float64(time.Millisecond))
		}
		total := time.Since(start).Seconds()
		ds.Publish()
		return ds, perFileMS, total, nil
	}

	baseline, _, _, err := importAll(1)
	if err != nil {
		return nil, err
	}
	rows := baseline.TotalRows()

	fmt.Fprintf(out, "Ingest throughput: trimming-mode parallel import (%d files, %d rows, GOMAXPROCS %d)\n",
		len(paths), rows, runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "%8s %10s %9s %12s %8s %10s %10s %10s\n",
		"workers", "rows", "seconds", "rows/s", "speedup", "p50 ms/f", "p90 ms/f", "identical")

	var points []IngestPoint
	var baseSeconds float64
	for _, workers := range workerCounts {
		ds, perFileMS, seconds, err := importAll(workers)
		if err != nil {
			return nil, err
		}
		hist := histogram.NewOver(0, Max(perFileMS)+1, 200)
		for _, ms := range perFileMS {
			hist.Add(ms)
		}
		p := IngestPoint{
			Workers:      workers,
			Rows:         rows,
			Seconds:      seconds,
			PerFileP50MS: hist.Quantile(0.50),
			PerFileP90MS: hist.Quantile(0.90),
			Identical:    reflect.DeepEqual(ds, baseline),
		}
		if seconds > 0 {
			p.RowsPerSecond = float64(rows) / seconds
		}
		if workers == 1 {
			baseSeconds = seconds
		}
		if baseSeconds > 0 {
			p.Speedup = baseSeconds / seconds
		}
		points = append(points, p)
		fmt.Fprintf(out, "%8d %10d %9.2f %12.0f %7.2fx %10.2f %10.2f %10v\n",
			p.Workers, p.Rows, p.Seconds, p.RowsPerSecond, p.Speedup, p.PerFileP50MS, p.PerFileP90MS, p.Identical)
	}
	return points, nil
}
