// Command nccustom extracts a customized test dataset from a stored test
// dataset by heterogeneity range (the paper's NC1/NC2/NC3 recipe, §6.5):
// sample clusters, drop records whose heterogeneity to preceding kept
// records leaves [hlow, hhigh], keep the largest clusters, and write the
// result as a labeled TSV restricted to the person attributes. The store is
// verified against its provenance record before it is read.
//
// Usage:
//
//	nccustom -db store/ -name NC2 -hlow 0.2 -hhigh 0.4 -sample 100000 -top 10000 -out nc2.tsv
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/custom"
	"repro/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process state passed in, so the tests drive the whole
// command: usage errors exit 2, failures 1 with one line on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nccustom", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		db     = fs.String("db", "store", "document-database directory")
		name   = fs.String("name", "NC", "output dataset name")
		hlow   = fs.Float64("hlow", 0.06, "lower heterogeneity bound")
		hhigh  = fs.Float64("hhigh", 0.2, "upper heterogeneity bound")
		sample = fs.Int("sample", 0, "clusters to sample (0 = all)")
		top    = fs.Int("top", 0, "largest clusters to keep (0 = all)")
		seed   = fs.Int64("seed", 1, "sampling seed")
		out    = fs.String("out", "custom.tsv", "output dataset file")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "nccustom: ", 0)

	ds, _, err := store.Open(*db, store.OpenOpts{})
	if err != nil {
		logger.Print(err)
		return 1
	}
	cfg := custom.Config{
		Name: *name, HLow: *hlow, HHigh: *hhigh,
		SampleClusters: *sample, SelectTop: *top, Seed: *seed,
	}
	result := custom.Build(ds, cfg)
	if err := result.WriteFile(*out); err != nil {
		logger.Print(err)
		return 1
	}
	ch := custom.Describe(result)
	fmt.Fprintf(stdout, "%s: %d records, %d clusters (%d non-singleton), %d duplicate pairs\n",
		ch.Name, ch.Records, ch.Clusters, ch.NonSingletons, ch.DupPairs)
	fmt.Fprintf(stdout, "cluster size avg %.2f max %d | heterogeneity avg %.3f max %.3f\n",
		ch.AvgCluster, ch.MaxCluster, ch.AvgHetero, ch.MaxHetero)
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return 0
}
