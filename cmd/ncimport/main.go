// Command ncimport builds a test dataset from register snapshots: it
// imports every VR_Snapshot_*.tsv of the input directory under the chosen
// duplicate-removal mode, optionally computes the plausibility and
// heterogeneity version-similarity maps, publishes the version and persists
// the cluster documents into a document database directory.
//
// Usage:
//
//	ncimport -in snapshots/ -mode trimming -scores -db store/
//	ncimport -in snapshots/ -metrics-addr :9090 -db store/
//
// Re-running against an existing -db directory continues the dataset: new
// snapshots are appended as a new version (the paper's update process,
// Fig. 2). The store is verified against its provenance record first; a
// directory that holds files but no valid store is refused and left as it
// is, never started over. Each snapshot file is read in line-aligned blocks
// that GOMAXPROCS goroutines decode and hash (GOMAXPROCS=1 runs inline, no
// goroutines) while the rows are applied in input order, so the result is
// identical at any count. GOMAXPROCS also sizes dirty-cluster and -scores
// recomputation and the document store's segmented save/load pool (the
// store bytes and contents are identical at any count).
// -metrics-addr serves GET /metrics (JSON and Prometheus) with the ingest
// and docstore counters while the import runs. -v prints per-stage wall
// times (load, parse+merge per snapshot, score, persist).
//
// -delta switches a continued import onto the incremental path: each
// snapshot is diffed against a fingerprint index of the loaded dataset, only
// clusters whose rows actually changed are touched, -scores recomputes the
// similarity maps only for clusters that gained records, and the store save
// rewrites only segments holding touched clusters (requires -stride, which
// pins the stable segment layout the reuse depends on; the first -delta run
// over a store saved with a different layout falls back to a full rewrite
// and stamps the stride for next time). The result is bit-identical to a
// full reimport — provided the continued store's scores were current, i.e.
// every earlier run of a -scores pipeline also used -scores.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/obs"
	"repro/internal/plaus"
	"repro/internal/provenance"
	"repro/internal/store"
	"repro/internal/voter"
)

// stampMeta assembles the provenance metadata of one import run: the mode,
// the full snapshot lineage across all published versions, and the ncgen
// descriptor of the input directory when one is present.
func stampMeta(ds *core.Dataset, in string, logger *log.Logger) provenance.Meta {
	gen, err := provenance.ReadGeneratorInfo(in)
	if err != nil {
		logger.Printf("reading %s: %v (continuing without generator metadata)", in, err)
		gen = nil
	}
	return provenance.Meta{
		Source:    "ncimport",
		Mode:      ds.Mode.String(),
		Lineage:   ds.SnapshotLineage(),
		Generator: gen,
	}
}

func parseMode(s string) (core.RemovalMode, error) {
	switch s {
	case "none", "no":
		return core.RemoveNone, nil
	case "exact":
		return core.RemoveExact, nil
	case "trimming", "trimmed":
		return core.RemoveTrimmed, nil
	case "person", "person-data":
		return core.RemovePersonData, nil
	}
	return 0, fmt.Errorf("unknown removal mode %q (none|exact|trimming|person)", s)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process state passed in: the exit code comes back
// instead of os.Exit, so the tests drive the whole command.
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "ncimport: ", 0)
	fs := flag.NewFlagSet("ncimport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in          = fs.String("in", "snapshots", "directory with VR_Snapshot_*.tsv files")
		modeS       = fs.String("mode", "trimming", "duplicate-removal mode: none|exact|trimming|person")
		db          = fs.String("db", "store", "document-database directory (created or continued)")
		scores      = fs.Bool("scores", false, "compute plausibility and heterogeneity maps")
		metricsAddr = fs.String("metrics-addr", "", "serve GET /metrics with ingest counters on this address during the import (e.g. :9090)")
		delta       = fs.Bool("delta", false, "incremental import: diff snapshots against the continued store, rescore only dirty clusters, rewrite only dirty segments")
		stride      = fs.Int("stride", 0, "stable segment layout: documents per segment (0 = balanced layout; required > 0 by -delta)")
		verbose     = fs.Bool("v", false, "print per-stage wall times (load, parse+merge, score, persist)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	mode, err := parseMode(*modeS)
	if err != nil {
		logger.Print(err)
		return 2
	}
	fail := func(err error) int {
		logger.Print(err)
		return 1
	}
	if *delta && *stride <= 0 {
		return fail(errors.New("-delta requires -stride > 0: dirty-segment reuse needs the stable segment layout"))
	}
	files, err := voter.ListSnapshotFiles(*in)
	if err != nil {
		return fail(err)
	}
	if len(files) == 0 {
		return fail(fmt.Errorf("no VR_Snapshot_*.tsv files in %s", *in))
	}
	metrics := obs.NewMetrics()

	// stages accumulates wall time per pipeline stage for -v.
	stages := map[string]time.Duration{}
	var stageOrder []string
	timed := func(name string, f func() error) error {
		start := time.Now()
		err := f()
		if _, seen := stages[name]; !seen {
			stageOrder = append(stageOrder, name)
		}
		stages[name] += time.Since(start)
		return err
	}

	var ds *core.Dataset
	if err := timed("load", func() error {
		var err error
		ds, _, err = store.Open(*db, store.OpenOpts{Observer: metrics})
		switch {
		case errors.Is(err, os.ErrNotExist):
			ds = core.NewDataset(mode)
			return nil
		case err != nil:
			return err
		case ds.Mode != mode:
			return fmt.Errorf("store %s uses mode %q; cannot continue with %q", *db, ds.Mode, mode)
		}
		fmt.Fprintf(stdout, "continuing store %s: %d clusters, %d records, version %d\n",
			*db, ds.NumClusters(), ds.NumRecords(), len(ds.Versions()))
		return nil
	}); err != nil {
		return fail(err)
	}
	if *delta && len(ds.Versions()) == 0 {
		return fail(fmt.Errorf("-delta continues an existing store, but %s holds no published dataset", *db))
	}
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", metrics.Handler())
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				logger.Printf("metrics server: %v", err)
			}
		}()
	}

	commit := store.CommitOpts{Stride: *stride, Observer: metrics}
	if *delta {
		// Incremental path: classify every row against the fingerprint index
		// of the loaded dataset, touch only changed clusters, and remember
		// which ones changed bytes (segment reuse) or gained records (score
		// recomputation).
		merged := &core.Delta{}
		var ix *core.FingerprintIndex
		timed("index", func() error { ix = core.BuildFingerprintIndex(ds); return nil })
		for _, path := range files {
			var dl *core.Delta
			if err := timed("parse+merge", func() error {
				var err error
				dl, err = ds.ApplySnapshotDelta(path, core.DeltaOptions{Observer: metrics, Index: ix})
				return err
			}); err != nil {
				return fail(fmt.Errorf("%s: %w", path, err))
			}
			merged.Merge(dl)
			fmt.Fprintf(stdout, "applied %s: %d rows (%d unchanged), %d new records, %d clusters touched, %d dirty\n",
				dl.Stats.Snapshot, dl.Stats.Rows, dl.Stats.UnchangedRows,
				dl.Stats.NewRecords, dl.Stats.TouchedClusters, dl.Stats.DirtyClusters)
		}
		if *scores {
			dirty := merged.Dirty()
			fmt.Fprintf(stdout, "recomputing scores for %d dirty clusters ...\n", len(dirty))
			timed("score", func() error {
				plaus.UpdateDelta(ds, merged, 0)
				hetero.UpdateDelta(ds, merged, 0)
				return nil
			})
			metrics.AddN("delta_clusters_rescored", int64(len(dirty)))
		}
		commit.Delta = merged
	} else {
		for _, path := range files {
			// Stream the file: register-sized snapshots never materialize.
			if err := timed("parse+merge", func() error {
				st, err := ds.ImportSnapshotFileParallelOpts(path, core.IngestOptions{Observer: metrics})
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, "imported %s: %d rows, %d new records, %d new objects\n",
					st.Snapshot, st.Rows, st.NewRecords, st.NewObjects)
				return nil
			}); err != nil {
				return fail(fmt.Errorf("%s: %w", path, err))
			}
		}
		if *scores {
			timed("score", func() error {
				fmt.Fprintln(stdout, "computing plausibility scores ...")
				plaus.UpdateParallel(ds, 0)
				fmt.Fprintln(stdout, "computing heterogeneity scores ...")
				hetero.UpdateParallel(ds, 0)
				return nil
			})
		}
	}
	version := ds.Publish()
	// Save and stamp in one pass; the bytes do not depend on the worker
	// count, and a -delta save reuses the segments it did not touch.
	if err := timed("persist", func() error {
		commit.Meta = stampMeta(ds, *in, logger)
		_, err := store.Commit(ds, *db, commit)
		return err
	}); err != nil {
		return fail(err)
	}
	printIngestCounters(stdout, metrics)
	printStageTimings(stdout, *verbose, stageOrder, stages)
	fmt.Fprintf(stdout, "published version %d: %d clusters, %d records, %d duplicate pairs -> %s\n",
		version, ds.NumClusters(), ds.NumRecords(), ds.NumPairs(), *db)
	return 0
}

// printStageTimings reports each pipeline stage's wall time under -v.
func printStageTimings(w io.Writer, verbose bool, order []string, stages map[string]time.Duration) {
	if !verbose {
		return
	}
	fmt.Fprintln(w, "stage timings:")
	for _, name := range order {
		fmt.Fprintf(w, "  %-12s %10.3fs\n", name, stages[name].Seconds())
	}
}

// printIngestCounters summarizes the ingest and docstore counters after the
// import.
func printIngestCounters(w io.Writer, m *obs.Metrics) {
	counters := m.Snapshot().Counters
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Fprintln(w, "pipeline counters:")
	for _, name := range names {
		fmt.Fprintf(w, "  %-28s %d\n", name, counters[name])
	}
}
