// Command nccustom extracts a customized test dataset from a stored test
// dataset by heterogeneity range (the paper's NC1/NC2/NC3 recipe, §6.5):
// sample clusters, drop records whose heterogeneity to preceding kept
// records leaves [hlow, hhigh], keep the largest clusters, and write the
// result as a labeled TSV restricted to the person attributes.
//
// Usage:
//
//	nccustom -db store/ -name NC2 -hlow 0.2 -hhigh 0.4 -sample 100000 -top 10000 -out nc2.tsv
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/custom"
	"repro/internal/docstore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nccustom: ")
	var (
		db     = flag.String("db", "store", "document-database directory")
		name   = flag.String("name", "NC", "output dataset name")
		hlow   = flag.Float64("hlow", 0.06, "lower heterogeneity bound")
		hhigh  = flag.Float64("hhigh", 0.2, "upper heterogeneity bound")
		sample = flag.Int("sample", 0, "clusters to sample (0 = all)")
		top    = flag.Int("top", 0, "largest clusters to keep (0 = all)")
		seed   = flag.Int64("seed", 1, "sampling seed")
		out    = flag.String("out", "custom.tsv", "output dataset file")
	)
	flag.Parse()

	stored, err := docstore.LoadParallelOpts(*db, docstore.LoadOpts{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	ds, err := core.FromDocDBParallel(stored, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := custom.Config{
		Name: *name, HLow: *hlow, HHigh: *hhigh,
		SampleClusters: *sample, SelectTop: *top, Seed: *seed,
	}
	result := custom.Build(ds, cfg)
	if err := result.WriteFile(*out); err != nil {
		log.Fatal(err)
	}
	ch := custom.Describe(result)
	fmt.Printf("%s: %d records, %d clusters (%d non-singleton), %d duplicate pairs\n",
		ch.Name, ch.Records, ch.Clusters, ch.NonSingletons, ch.DupPairs)
	fmt.Printf("cluster size avg %.2f max %d | heterogeneity avg %.3f max %.3f\n",
		ch.AvgCluster, ch.MaxCluster, ch.AvgHetero, ch.MaxHetero)
	fmt.Printf("wrote %s\n", *out)
}
