// Pollute: the paper's DaPo-hybrid future work (§8) — take a historical
// test dataset (real outdated values included) and inject additional
// synthetic errors at will, preserving the gold standard. The example
// shows the dirtiness and detection difficulty shifting with the pollution
// intensity.
package main

import (
	"fmt"
	"log"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/custom"
	"repro/internal/dapo"
	"repro/internal/dedup"
	"repro/internal/hetero"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)

	cfg := synth.DefaultConfig(31, 800)
	cfg.Snapshots = synth.Calendar(2008, 6)
	base := core.NewDataset(core.RemoveTrimmed)
	for _, s := range synth.Generate(cfg) {
		base.ImportSnapshot(s)
	}
	hetero.UpdateParallel(base, 0)
	base.Publish()
	fmt.Printf("base dataset: %d clusters, %d records\n\n", base.NumClusters(), base.NumRecords())

	fmt.Printf("%-10s %12s %14s %10s %10s\n", "variant", "records", "+duplicates", "avg het", "best F1")
	report("base", base, 0)

	for _, intensity := range []int{1, 2, 4} {
		pcfg := dapo.DefaultConfig(31)
		pcfg.RecordFraction = 0.5
		pcfg.Intensity = intensity
		pcfg.ExtraDuplicateRate = 0.3
		polluted, st := dapo.Pollute(base, pcfg)
		hetero.UpdateParallel(polluted, 0)
		report(fmt.Sprintf("dapo x%d", intensity), polluted, st.ExtraDuplicates)
	}
	fmt.Println("\nreal outdated values stay in every variant; synthetic errors are")
	fmt.Println("added on top at will — the strengths of both approaches combined.")
}

// report prints one variant's dirtiness and detectability.
func report(name string, d *core.Dataset, extra int) {
	avgHet := mean(hetero.ClusterHeterogeneity(d, core.KindHeteroPerson))
	ds := custom.Build(d, custom.Config{Name: name, HLow: 0, HHigh: 1, SelectTop: 120, Seed: 1})
	cands, _ := blocking.Generate(ds, blocking.Config{Passes: blocking.EntropyPasses(ds, 5), Window: 20})
	f1, _ := dedup.EvaluateCandidatesParallel(ds, dedup.MeasureMELev, cands, 100, dedup.ScoreOpts{}).BestF1()
	fmt.Printf("%-10s %12d %14d %10.3f %10.3f\n", name, d.NumRecords(), extra, avgHet, f1)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
