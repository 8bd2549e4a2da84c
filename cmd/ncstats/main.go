// Command ncstats prints the statistics of a stored test dataset: the
// per-year import history (Table 1), the generation summary, the
// cluster-size histogram (Fig. 1) and — when scores were computed — the
// plausibility and heterogeneity distributions (Fig. 4).
//
// With -verify it instead checks the store against its provenance record
// (internal/provenance): every segment and manifest digest is re-derived and
// the hash chain is walked, so any flipped bit since the last stamp is
// reported with the exact corrupted file named. -expect-root additionally
// pins the record to an out-of-band corpus root or head hash.
//
// Usage:
//
//	ncstats -db store/
//	ncstats -db store/ -verify [-verify-workers N] [-expect-root HEX]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/hetero"
	"repro/internal/plaus"
	"repro/internal/provenance"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ncstats: ")
	var (
		db         = flag.String("db", "store", "document-database directory")
		version    = flag.Int("version", 0, "reconstruct and report this published version (0 = latest)")
		from       = flag.String("from", "", "restrict to snapshots >= this date (YYYY-MM-DD)")
		to         = flag.String("to", "", "restrict to snapshots <= this date (YYYY-MM-DD)")
		verify     = flag.Bool("verify", false, "verify the store against its provenance record and exit")
		verifyWork = flag.Int("verify-workers", 0, "leaf-hashing workers for -verify (0 = all cores)")
		expectRoot = flag.String("expect-root", "", "with -verify: require the record's corpus root or head hash to equal this digest")
	)
	flag.Parse()

	if *verify {
		runVerify(*db, *verifyWork, *expectRoot)
		return
	}

	stored, err := docstore.LoadParallelOpts(*db, docstore.LoadOpts{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	ds, err := core.FromDocDBParallel(stored, 1)
	if err != nil {
		log.Fatal(err)
	}
	out := os.Stdout

	fmt.Fprintf(out, "store %s: mode %q, %d versions\n", *db, ds.Mode, len(ds.Versions()))
	if *version > 0 {
		if *version > len(ds.Versions()) {
			log.Fatalf("version %d not published (latest is %d)", *version, len(ds.Versions()))
		}
		ds = ds.ReconstructVersion(*version)
		fmt.Fprintf(out, "reconstructed version %d\n", *version)
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
		fmt.Fprintf(out, "restricted to snapshots %s .. %s\n", lo, hi)
	}
	fmt.Fprintf(out, "clusters %d, records %d, duplicate pairs %d, avg cluster %.2f, max cluster %d\n",
		ds.NumClusters(), ds.NumRecords(), ds.NumPairs(), ds.AvgClusterSize(), ds.MaxClusterSize())
	fmt.Fprintf(out, "rows offered %d, removed as near-exact duplicates %d (%.1f%%)\n",
		ds.TotalRows(), ds.RemovedRecords(),
		100*float64(ds.RemovedRecords())/float64(max(1, ds.TotalRows())))

	fmt.Fprintln(out, "\nper-year import history:")
	for _, y := range ds.YearlyStats() {
		fmt.Fprintf(out, "  %d: %d snapshots, %d rows, %d new records (%.1f%%), %d new objects (%.1f%%)\n",
			y.Year, y.Snapshots, y.TotalRecords, y.NewRecords, 100*y.NewRecordRate,
			y.NewObjects, 100*y.NewObjectRate)
	}

	fmt.Fprintln(out, "\ncluster-size histogram:")
	hist := ds.ClusterSizeHistogram()
	sizes := make([]int, 0, len(hist))
	for s := range hist {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	for _, s := range sizes {
		fmt.Fprintf(out, "  size %3d: %d clusters\n", s, hist[s])
	}

	if ps := plaus.ClusterPlausibility(ds); len(ps) > 0 {
		fmt.Fprintf(out, "\nplausibility: %d scored clusters, avg %.3f, min %.3f\n",
			len(ps), mean(ps), minOf(ps))
	}
	if hs := hetero.ClusterHeterogeneity(ds, core.KindHeteroPerson); len(hs) > 0 {
		fmt.Fprintf(out, "heterogeneity (person): %d scored clusters, avg %.3f, max %.3f\n",
			len(hs), mean(hs), maxOf(hs))
	}
}

// runVerify checks the store against its provenance record and exits: 0 on
// a clean verification, non-zero with every corrupted file named otherwise.
func runVerify(dir string, workers int, expectRoot string) {
	rep, err := provenance.VerifyDir(dir, provenance.VerifyOpts{
		Workers:    workers,
		ExpectRoot: expectRoot,
	})
	if err != nil {
		for _, f := range rep.Bad {
			log.Printf("corrupted: %s", f)
		}
		log.Fatal(err)
	}
	rec := rep.Record
	fmt.Printf("store %s: provenance OK\n", dir)
	fmt.Printf("  chain: %d link(s), head %s\n", len(rec.Chain), rec.HeadHash())
	fmt.Printf("  corpus root: %s\n", rec.Root())
	fmt.Printf("  verified: %d collection(s), %d segment(s), %d documents, %d bytes hashed\n",
		len(rec.Collections), rep.Leaves, rec.Head().Docs, rep.Bytes)
	if len(rec.Meta.Lineage) > 0 {
		fmt.Printf("  lineage: %d snapshot(s), %s .. %s\n",
			len(rec.Meta.Lineage), rec.Meta.Lineage[0], rec.Meta.Lineage[len(rec.Meta.Lineage)-1])
	}
	if g := rec.Meta.Generator; g != nil {
		fmt.Printf("  generator: %s seed %d (%d voters, %d years, %s errors)\n",
			g.Tool, g.Seed, g.Voters, g.Years, g.Errors)
	}
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
