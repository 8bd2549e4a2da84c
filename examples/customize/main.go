// Customize: derive test datasets of chosen dirtiness (the paper's
// NC1/NC2/NC3) from one simulated register and show that detection
// difficulty follows the requested heterogeneity — the usability experiment
// of §6.5 in miniature.
package main

import (
	"fmt"
	"log"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/custom"
	"repro/internal/dedup"
	"repro/internal/hetero"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)

	// Build the big dataset once.
	cfg := synth.DefaultConfig(7, 1200)
	cfg.Snapshots = synth.Calendar(2008, 10)
	ds := core.NewDataset(core.RemoveTrimmed)
	sim := synth.New(cfg)
	for i := 0; i < sim.NumSnapshots(); i++ {
		ds.ImportSnapshot(sim.Next())
	}
	hetero.Update(ds)
	ds.Publish()
	fmt.Printf("source dataset: %d clusters, %d records\n\n", ds.NumClusters(), ds.NumRecords())

	// Three heterogeneity ranges, as in the paper.
	configs := []custom.Config{
		custom.NC1Config(7, 0, 80),
		custom.NC2Config(7, 0, 80),
		custom.NC3Config(7, 0, 80),
	}
	for _, c := range configs {
		out := custom.Build(ds, c)
		ch := custom.Describe(out)
		fmt.Printf("%s  [h in %.2f..%.2f]: %d records, %d clusters, %d pairs, avg heterogeneity %.3f\n",
			ch.Name, c.HLow, c.HHigh, ch.Records, ch.Clusters, ch.DupPairs, ch.AvgHetero)
		if ch.DupPairs == 0 {
			fmt.Println("  (no duplicate pairs at this scale — grow the source dataset)")
			continue
		}
		cands, _ := blocking.Generate(out, blocking.Config{Passes: blocking.EntropyPasses(out, 5), Window: 20})
		for _, m := range dedup.Measures {
			curve := dedup.EvaluateCandidatesParallel(out, m, cands, 100, dedup.ScoreOpts{})
			f1, th := curve.BestF1()
			fmt.Printf("  %-12s best F1 %.3f @ threshold %.2f\n", m, f1, th)
		}
		fmt.Println()
	}
	fmt.Println("expected shape: F1 decreases from NC1 to NC3, and the threshold")
	fmt.Println("choice matters more the dirtier the dataset (paper Fig. 5).")
}
