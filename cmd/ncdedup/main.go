// Command ncdedup evaluates the duplicate-detection pipeline of the
// paper's usability experiment on a labeled dataset: multi-pass Sorted
// Neighborhood candidate generation (see docs/BLOCKING.md),
// entropy-weighted record similarity with best 1:1 name matching, and a
// full threshold sweep per §6.5 measure.
//
// Usage:
//
//	ncdedup -in nc2.tsv -passes 5 -window 20
//	ncdedup -in nc2.tsv -passes 'last_name+zip_code,soundex(last_name)'
//	ncdedup -db store/                         # store-backed evaluation mode
//	GOMAXPROCS=1 ncdedup -in nc2.tsv           # inline blocking + scoring, identical output
//
// -passes takes either an integer k (one SNM pass per the k most unique
// attributes — the paper's §6.5 setup) or comma-separated pass-key specs
// (components joined by +: attribute names, soundex(attr), prefix(attr,n)).
//
// With -db the labeled dataset is derived from a stored corpus instead of
// a TSV export (the store-backed evaluation mode): the store is verified
// against its provenance record, loads through the parallel segmented
// reader, the clusters parse in parallel, and every record is
// kept (the full heterogeneity range), so the evaluation covers the store
// as-is.
//
// The blocking layer never materializes the candidate union: pairs flow to
// the scoring workers as bounded batches, so peak memory is independent of
// the candidate count. Blocking re-runs per measure, the price of never
// holding the pair set. Loading, blocking and scoring run on GOMAXPROCS
// workers (GOMAXPROCS=1 runs them inline); the report is byte-identical at
// any count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/blocking"
	"repro/internal/custom"
	"repro/internal/dedup"
	"repro/internal/obs"
	"repro/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process state passed in: the exit code comes back
// instead of os.Exit, so the tests drive the whole command.
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "ncdedup: ", 0)
	fs := flag.NewFlagSet("ncdedup", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in          = fs.String("in", "", "labeled dataset file (from nccustom); mutually exclusive with the -db store-backed mode")
		db          = fs.String("db", "", "document-store directory to evaluate directly (store-backed evaluation mode: loads the segmented store in parallel and derives the labeled dataset from it instead of a TSV export)")
		passesS     = fs.String("passes", "5", "SNM passes: an integer k (k most-unique attributes, the paper's setup) or comma-separated key specs like 'last_name+zip_code,soundex(first_name),prefix(last_name,4)'")
		window      = fs.Int("window", blocking.DefaultWindow, "SNM window size (records per sorted-neighborhood slide, at least 2)")
		steps       = fs.Int("steps", 100, "threshold sweep steps (at least 1)")
		curves      = fs.Bool("curves", false, "print the full F1 curve per measure")
		metricsAddr = fs.String("metrics-addr", "", "serve GET /metrics (JSON and Prometheus) with the blocking_pipeline_total and score_pipeline_total counters on this address during the run (e.g. :9090)")
		verbose     = fs.Bool("v", false, "print the run's wall time and per-stage times (blocking busy time and lifetime, preprocessing, scoring, merge)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	start := time.Now()
	fail := func(err error) int {
		logger.Print(err)
		return 1
	}
	if (*in == "") == (*db == "") {
		return fail(errors.New("need exactly one of -in (dataset file) or -db (document store)"))
	}
	if *steps < 1 {
		return fail(fmt.Errorf("-steps %d: need at least one threshold step", *steps))
	}
	if *window < 2 {
		return fail(fmt.Errorf("-window %d: need at least two records per window", *window))
	}

	metrics := obs.NewMetrics()
	if *metricsAddr != "" {
		go func() {
			mux := http.NewServeMux()
			mux.Handle("GET /metrics", metrics.Handler())
			logger.Printf("metrics on http://%s/metrics", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				logger.Printf("metrics server: %v", err)
			}
		}()
	}

	var ds *dedup.Dataset
	if *db != "" {
		cds, _, err := store.Open(*db, store.OpenOpts{Observer: metrics})
		if err != nil {
			return fail(err)
		}
		// The full heterogeneity range keeps every record: the evaluation
		// runs against the store as-is rather than a customization of it.
		ds = custom.Build(cds, custom.Config{Name: *db, HLow: 0, HHigh: 1})
	} else {
		var err error
		ds, err = dedup.ReadFile(*in)
		if err != nil {
			return fail(err)
		}
	}
	fmt.Fprintf(stdout, "%s: %d records, %d clusters, %d true duplicate pairs\n",
		ds.Name, ds.NumRecords(), ds.NumClusters(), ds.NumTruePairs())

	cfg, err := blockConfig(ds, *passesS, *window)
	if err != nil {
		return fail(err)
	}
	cfg.Observer = metrics

	// stages accumulates each scoring stage's wall time for -v, in the
	// order the stages first report. The blocking producer runs
	// concurrently with scoring, so it is timed apart: busy is its time
	// outside blocked sends, life its lifetime.
	stages := map[string]time.Duration{}
	var stageOrder []string
	addStage := func(name string, d time.Duration) {
		if _, seen := stages[name]; !seen {
			stageOrder = append(stageOrder, name)
		}
		stages[name] += d
	}
	var busy, life time.Duration
	opts := dedup.ScoreOpts{Observer: metrics, OnStage: addStage}

	// One GenerateStream per measure feeds the scoring workers directly, so
	// the candidate union never exists in memory. The blocking summary
	// prints after the first measure, when its stats are complete.
	for i, m := range dedup.Measures {
		if i > 0 {
			// Blocking counters were reported with the first stream; the
			// re-runs for the remaining measures are repeats, not new work.
			cfg.Observer = nil
		}
		s := blocking.GenerateStream(ds, cfg, blocking.StreamOpts{})
		opts.Recycle = s.Recycle
		curve := dedup.EvaluateCandidatesStream(ds, m, s.C, *steps, opts)
		busy += s.Busy()
		life += s.Elapsed()
		if i == 0 {
			// Recall at threshold 0 classifies every streamed candidate a
			// duplicate — exactly the blocking recall.
			printBlockingStats(stdout, s.Stats(), curve.Points[0].Recall)
		}
		printCurve(stdout, m, curve, *curves)
	}
	if *verbose {
		fmt.Fprintf(stdout, "stage timings (wall %.3fs):\n", time.Since(start).Seconds())
		fmt.Fprintf(stdout, "  %-13s %9.3fs busy of %.3fs lifetime, concurrent with scoring\n",
			"blocking", busy.Seconds(), life.Seconds())
		for _, name := range stageOrder {
			fmt.Fprintf(stdout, "  %-13s %9.3fs\n", name, stages[name].Seconds())
		}
	}
	return 0
}

func printBlockingStats(w io.Writer, stats blocking.Stats, recall float64) {
	for _, p := range stats.SNMPasses {
		fmt.Fprintf(w, "blocking: snm pass %-28s window %-3d %8d pairs\n", p.Name, p.Window, p.Pairs)
	}
	fmt.Fprintf(w, "blocking: %d unique candidate pairs (%d emitted), recall %.3f\n",
		stats.Unique, stats.Emitted, recall)
}

func printCurve(w io.Writer, m dedup.Measure, curve dedup.Curve, full bool) {
	f1, th := curve.BestF1()
	fmt.Fprintf(w, "%-12s best F1 %.3f at threshold %.2f\n", m, f1, th)
	if full {
		for _, p := range curve.Points {
			fmt.Fprintf(w, "  t=%.2f precision %.3f recall %.3f F1 %.3f\n",
				p.Threshold, p.Precision, p.Recall, p.F1)
		}
	}
}

// blockConfig assembles the blocking configuration from the flag values:
// -passes is an integer k (the k most unique attributes) or key specs.
func blockConfig(ds *dedup.Dataset, passesS string, window int) (blocking.Config, error) {
	cfg := blocking.Config{Window: window}
	if k, err := strconv.Atoi(strings.TrimSpace(passesS)); err == nil {
		if k < 1 {
			return cfg, fmt.Errorf("-passes %d: need at least one pass", k)
		}
		cfg.Passes = blocking.EntropyPasses(ds, k)
		return cfg, nil
	}
	passes, err := blocking.ParsePasses(ds, passesS)
	cfg.Passes = passes
	return cfg, err
}
