// Command ncstats prints the statistics of a stored test dataset: the
// per-year import history (Table 1), the generation summary, the
// cluster-size histogram (Fig. 1) and — when scores were computed — the
// plausibility and heterogeneity distributions (Fig. 4). The store is
// verified against its provenance record before it is read.
//
// With -verify it instead checks the store against its provenance record
// (internal/provenance): every segment and manifest digest is re-derived and
// the hash chain is walked, so any flipped bit since the last stamp is
// reported with the exact corrupted file named. -expect-root additionally
// pins the record to an out-of-band corpus root or head hash. Loading and
// leaf hashing run on GOMAXPROCS workers.
//
// Usage:
//
//	ncstats -db store/
//	ncstats -db store/ -verify [-expect-root HEX]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/plaus"
	"repro/internal/provenance"
	"repro/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process state passed in, so the tests drive the whole
// command: usage errors exit 2, failures 1 with one line on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ncstats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		db         = fs.String("db", "store", "document-database directory")
		version    = fs.Int("version", 0, "reconstruct and report this published version (0 = latest)")
		from       = fs.String("from", "", "restrict to snapshots >= this date (YYYY-MM-DD)")
		to         = fs.String("to", "", "restrict to snapshots <= this date (YYYY-MM-DD)")
		verify     = fs.Bool("verify", false, "verify the store against its provenance record and exit")
		expectRoot = fs.String("expect-root", "", "with -verify: require the record's corpus root or head hash to equal this digest")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "ncstats: ", 0)

	if *verify {
		return runVerify(stdout, logger, *db, *expectRoot)
	}

	ds, _, err := store.Open(*db, store.OpenOpts{})
	if err != nil {
		logger.Print(err)
		return 1
	}
	if n := len(ds.Versions()); *version < 0 || *version > n {
		logger.Printf("version %d not published (latest is %d)", *version, n)
		return 1
	}

	fmt.Fprintf(stdout, "store %s: mode %q, %d versions\n", *db, ds.Mode, len(ds.Versions()))
	if *version > 0 {
		ds = ds.ReconstructVersion(*version)
		fmt.Fprintf(stdout, "reconstructed version %d\n", *version)
	}
	if *from != "" || *to != "" {
		lo, hi := *from, *to
		if lo == "" {
			lo = "0000-01-01"
		}
		if hi == "" {
			hi = "9999-12-31"
		}
		ds = ds.SnapshotRange(lo, hi)
		fmt.Fprintf(stdout, "restricted to snapshots %s .. %s\n", lo, hi)
	}
	fmt.Fprintf(stdout, "clusters %d, records %d, duplicate pairs %d, avg cluster %.2f, max cluster %d\n",
		ds.NumClusters(), ds.NumRecords(), ds.NumPairs(), ds.AvgClusterSize(), ds.MaxClusterSize())
	fmt.Fprintf(stdout, "rows offered %d, removed as near-exact duplicates %d (%.1f%%)\n",
		ds.TotalRows(), ds.RemovedRecords(),
		100*float64(ds.RemovedRecords())/float64(max(1, ds.TotalRows())))

	fmt.Fprintln(stdout, "\nper-year import history:")
	for _, y := range ds.YearlyStats() {
		fmt.Fprintf(stdout, "  %d: %d snapshots, %d rows, %d new records (%.1f%%), %d new objects (%.1f%%)\n",
			y.Year, y.Snapshots, y.TotalRecords, y.NewRecords, 100*y.NewRecordRate,
			y.NewObjects, 100*y.NewObjectRate)
	}

	fmt.Fprintln(stdout, "\ncluster-size histogram:")
	hist := ds.ClusterSizeHistogram()
	sizes := make([]int, 0, len(hist))
	for s := range hist {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	for _, s := range sizes {
		fmt.Fprintf(stdout, "  size %3d: %d clusters\n", s, hist[s])
	}

	if ps := plaus.ClusterPlausibility(ds); len(ps) > 0 {
		fmt.Fprintf(stdout, "\nplausibility: %d scored clusters, avg %.3f, min %.3f\n",
			len(ps), mean(ps), minOf(ps))
	}
	if hs := hetero.ClusterHeterogeneity(ds, core.KindHeteroPerson); len(hs) > 0 {
		fmt.Fprintf(stdout, "heterogeneity (person): %d scored clusters, avg %.3f, max %.3f\n",
			len(hs), mean(hs), maxOf(hs))
	}
	return 0
}

// runVerify checks the store against its provenance record: 0 on a clean
// verification, 1 with every corrupted file named otherwise.
func runVerify(stdout io.Writer, logger *log.Logger, dir, expectRoot string) int {
	rep, err := provenance.VerifyDir(dir, provenance.VerifyOpts{ExpectRoot: expectRoot})
	if err != nil {
		for _, f := range rep.Bad {
			logger.Printf("corrupted: %s", f)
		}
		logger.Print(err)
		return 1
	}
	rec := rep.Record
	fmt.Fprintf(stdout, "store %s: provenance OK\n", dir)
	fmt.Fprintf(stdout, "  chain: %d link(s), head %s\n", len(rec.Chain), rec.HeadHash())
	fmt.Fprintf(stdout, "  corpus root: %s\n", rec.Root())
	fmt.Fprintf(stdout, "  verified: %d collection(s), %d segment(s), %d documents, %d bytes hashed\n",
		len(rec.Collections), rep.Leaves, rec.Head().Docs, rep.Bytes)
	if len(rec.Meta.Lineage) > 0 {
		fmt.Fprintf(stdout, "  lineage: %d snapshot(s), %s .. %s\n",
			len(rec.Meta.Lineage), rec.Meta.Lineage[0], rec.Meta.Lineage[len(rec.Meta.Lineage)-1])
	}
	if g := rec.Meta.Generator; g != nil {
		fmt.Fprintf(stdout, "  generator: %s seed %d (%d voters, %d years, %s errors)\n",
			g.Tool, g.Seed, g.Voters, g.Years, g.Errors)
	}
	return 0
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
