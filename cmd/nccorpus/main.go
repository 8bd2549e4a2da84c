// Command nccorpus demonstrates the generalized procedure (the paper's
// future work, §8) end-to-end on the built-in company-register domain:
// simulate the register, import its snapshots through the generic pipeline,
// print the statistics, and optionally export the labeled dataset for
// ncdedup.
//
// Usage:
//
//	nccorpus -companies 2000 -years 10 -out companies.tsv
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/dedup"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nccorpus: ")
	var (
		domain  = flag.String("domain", "companies", "historical corpus domain: companies|publications")
		initial = flag.Int("initial", 1000, "initial objects in the register")
		years   = flag.Int("years", 8, "years of snapshot history")
		seed    = flag.Int64("seed", 1, "simulation seed")
		out     = flag.String("out", "", "optional labeled dataset output file")
		detect  = flag.Bool("detect", true, "run the three detection pipelines")
	)
	flag.Parse()

	var schema corpus.Schema
	var snaps []corpus.Snapshot
	switch *domain {
	case "companies":
		schema = corpus.CompanySchema()
		snaps = corpus.GenerateCompanies(corpus.DefaultCompanyConfig(*seed, *initial, *years))
	case "publications":
		schema = corpus.PublicationSchema()
		snaps = corpus.GeneratePublications(corpus.DefaultPublicationConfig(*seed, *initial, *years))
	default:
		log.Fatalf("unknown domain %q (companies|publications)", *domain)
	}

	d := corpus.NewDataset(schema)
	for _, s := range snaps {
		st, err := d.ImportSnapshot(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("imported %s: %d rows, %d new records, %d new objects\n",
			st.Snapshot, st.Rows, st.NewRecords, st.NewObjects)
	}
	removed := d.TotalRows() - d.NumRecords()
	fmt.Printf("\n%d rows -> %d records in %d clusters (%d duplicate pairs, %.1f%% near-exact removed)\n",
		d.TotalRows(), d.NumRecords(), d.NumClusters(), d.NumPairs(),
		100*float64(removed)/float64(d.TotalRows()))

	hs := d.ClusterHeterogeneity()
	sum := 0.0
	for _, h := range hs {
		sum += h
	}
	if len(hs) > 0 {
		fmt.Printf("heterogeneity: %d multi-record clusters, avg %.3f\n", len(hs), sum/float64(len(hs)))
	}

	ds := d.Export()
	if *out != "" {
		if err := ds.WriteFile(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote labeled dataset to %s\n", *out)
	}
	if *detect {
		fmt.Println("\ndetection:")
		cands, _ := blocking.Generate(ds, blocking.Config{Passes: blocking.EntropyPasses(ds, 4), Window: 20})
		for _, m := range dedup.Measures {
			curve := dedup.EvaluateCandidatesParallel(ds, m, cands, 100, dedup.ScoreOpts{})
			f1, th := curve.BestF1()
			fmt.Printf("  %-12s best F1 %.3f @ threshold %.2f\n", m, f1, th)
		}
	}
}
