// Command ncpollute applies the DaPo-hybrid pollution (the paper's future
// work, §8) to a stored test dataset: it injects additional synthetic
// errors and extra duplicates at will — on top of the real outdated values
// — and writes the polluted dataset into a new store. The gold standard is
// preserved exactly.
//
// Usage:
//
//	ncpollute -db store/ -out polluted-store/ -fraction 0.5 -intensity 2 -extra 0.3
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dapo"
	"repro/internal/docstore"
	"repro/internal/hetero"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ncpollute: ")
	var (
		db        = flag.String("db", "store", "input document-database directory")
		out       = flag.String("out", "polluted", "output document-database directory")
		seed      = flag.Int64("seed", 1, "pollution seed")
		fraction  = flag.Float64("fraction", 0.25, "fraction of records receiving extra errors")
		intensity = flag.Int("intensity", 1, "error-mix applications per polluted record")
		extra     = flag.Float64("extra", 0.2, "per-cluster probability of an extra synthetic duplicate")
		maxExtra  = flag.Int("maxextra", 1, "cap on synthetic duplicates per cluster")
		scores    = flag.Bool("scores", true, "recompute heterogeneity scores on the polluted data")
	)
	flag.Parse()

	stored, err := docstore.LoadParallelOpts(*db, docstore.LoadOpts{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	base, err := core.FromDocDBParallel(stored, 1)
	if err != nil {
		log.Fatal(err)
	}
	cfg := dapo.DefaultConfig(*seed)
	cfg.RecordFraction = *fraction
	cfg.Intensity = *intensity
	cfg.ExtraDuplicateRate = *extra
	cfg.MaxExtraPerCluster = *maxExtra

	polluted, st := dapo.Pollute(base, cfg)
	if *scores {
		fmt.Println("recomputing heterogeneity scores ...")
		hetero.UpdateParallel(polluted, 0)
	}
	if err := polluted.ToDocDB().SaveParallelOpts(*out, docstore.SaveOpts{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("polluted %d of %d records, added %d synthetic duplicates\n",
		st.PollutedRecords, base.NumRecords(), st.ExtraDuplicates)
	fmt.Printf("wrote %d clusters / %d records -> %s\n", st.Clusters, st.Records, *out)
}
