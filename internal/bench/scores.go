package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/custom"
	"repro/internal/datasets"
	"repro/internal/dedup"
	"repro/internal/hetero"
	"repro/internal/histogram"
	"repro/internal/plaus"
	"repro/internal/voter"
)

// Figure3Result mirrors the paper's Figure 3 discussion: the plausibility
// and heterogeneity of an erroneous-but-sound cluster versus an unsound
// cluster.
type Figure3Result struct {
	SoundPlausibility   float64 // paper: 0.81 for DB175272
	UnsoundPlausibility float64 // paper: 0.33 for DR19657
	SoundHetero         float64 // paper: 0.38
	UnsoundHetero       float64 // paper: 0.35
}

// RunFigure3Examples builds the two example clusters of Figure 3 and scores
// them.
func RunFigure3Examples(out io.Writer) Figure3Result {
	mk := func(ncid, first, middle, last, sex, age, date string) voter.Record {
		r := voter.NewRecord()
		r.SetName("ncid", ncid)
		r.SetName("first_name", first)
		r.SetName("midl_name", middle)
		r.SetName("last_name", last)
		r.SetName("sex_code", sex)
		r.SetName("age", age)
		r.SetName("snapshot_dt", date)
		r.SetName("birth_place", "NC")
		return r
	}
	// The ages stem from different snapshots (the paper's Figure 3 lists
	// ages 45/47/49 across registrations), so the derived year of birth is
	// consistent.
	d := core.NewDataset(core.RemoveTrimmed)
	d.ImportSnapshot(voter.Snapshot{Date: "2008-01-01", Records: []voter.Record{
		mk("DB175272", "DEBRA", "OEHRIE", "WILLIAMS", "F", "45", "2008-01-01"),
		mk("DR19657", "MARY", "ELIZABETH", "FIELDS", "F", "57", "2008-01-01"),
	}})
	d.ImportSnapshot(voter.Snapshot{Date: "2010-01-01", Records: []voter.Record{
		mk("DB175272", "DEBRA", "OEHRLE", "WILLIAMS", "F", "47", "2010-01-01"),
	}})
	d.ImportSnapshot(voter.Snapshot{Date: "2012-01-01", Records: []voter.Record{
		// Word confusion: the last name slipped into the middle slot.
		mk("DB175272", "DEBRA", "ANN", "OEHRLE", "F", "49", "2012-01-01"),
		// Unsound cluster: an obviously different person under the same id.
		mk("DR19657", "JOSHUA", "ELIZABETH", "BETHEA", "M", "93", "2012-01-01"),
	}})
	plaus.Update(d)
	hetero.Update(d)
	d.Publish()

	var res Figure3Result
	res.SoundPlausibility, _ = d.Cluster("DB175272").ClusterScore(core.KindPlausibility, core.AggMin)
	res.UnsoundPlausibility, _ = d.Cluster("DR19657").ClusterScore(core.KindPlausibility, core.AggMin)
	sh, _ := d.Cluster("DB175272").ClusterScore(core.KindHeteroPerson, core.AggMean)
	uh, _ := d.Cluster("DR19657").ClusterScore(core.KindHeteroPerson, core.AggMean)
	res.SoundHetero = core.HeteroFromSim(sh)
	res.UnsoundHetero = core.HeteroFromSim(uh)

	fmt.Fprintln(out, "Figure 3 examples: erroneous vs. unsound cluster")
	fmt.Fprintf(out, "  DB175272 (errors, same voter): plausibility %.2f  heterogeneity %.2f  (paper: 0.81 / 0.38)\n",
		res.SoundPlausibility, res.SoundHetero)
	fmt.Fprintf(out, "  DR19657  (two voters):         plausibility %.2f  heterogeneity %.2f  (paper: 0.33 / 0.35)\n",
		res.UnsoundPlausibility, res.UnsoundHetero)
	return res
}

// Figure4aResult is the plausibility distribution of the big dataset.
type Figure4aResult struct {
	ClusterHist   histogram.Histogram
	PairHist      histogram.Histogram
	AvgCluster    float64
	MinCluster    float64
	FracAtOne     float64 // fraction of clusters at exactly 1.0 (paper: 92.8 %)
	FracBelow0_9  float64 // paper: 5.5 %
	FracBelow0_8  float64 // paper: 0.43 %
	FracBelow0_5  float64 // paper: 0.0045 %
	TotalClusters int
}

// RunFigure4a computes the plausibility distribution.
func RunFigure4a(w *Workspace, out io.Writer) Figure4aResult {
	d := w.ScoredDataset()
	clusters := plaus.ClusterPlausibility(d)
	var pairs []float64
	d.PairScores(core.KindPlausibility, func(_ *core.Cluster, _, _ int, s float64) bool {
		pairs = append(pairs, s)
		return true
	})
	res := Figure4aResult{
		ClusterHist:   histogram.New(clusters, 20),
		PairHist:      histogram.New(pairs, 20),
		AvgCluster:    Mean(clusters),
		MinCluster:    Min(clusters),
		FracBelow0_9:  FractionBelow(clusters, 0.9),
		FracBelow0_8:  FractionBelow(clusters, 0.8),
		FracBelow0_5:  FractionBelow(clusters, 0.5),
		TotalClusters: len(clusters),
	}
	one := 0
	for _, c := range clusters {
		if c >= 0.9999 {
			one++
		}
	}
	if len(clusters) > 0 {
		res.FracAtOne = float64(one) / float64(len(clusters))
	}
	fmt.Fprintln(out, "Figure 4a: plausibility distribution (trimmed dataset)")
	fmt.Fprintf(out, "  clusters scored: %d   avg %.3f   min %.3f\n", res.TotalClusters, res.AvgCluster, res.MinCluster)
	fmt.Fprintf(out, "  at 1.0: %.1f%%   <0.9: %.2f%%   <0.8: %.3f%%   <0.5: %.4f%%   (paper: 92.8%% / 5.5%% / 0.43%% / 0.0045%%)\n",
		100*res.FracAtOne, 100*res.FracBelow0_9, 100*res.FracBelow0_8, 100*res.FracBelow0_5)
	res.ClusterHist.Fprint(out, "  cluster plausibility")
	return res
}

// Figure4bResult is the NC heterogeneity distribution.
type Figure4bResult struct {
	ClusterHist histogram.Histogram
	PairHist    histogram.Histogram
	AvgCluster  float64 // paper: 0.09
	AvgPair     float64 // paper: 0.16
	MaxCluster  float64 // paper: 0.64
	MaxPair     float64 // paper: 0.90
}

// RunFigure4b computes the heterogeneity distributions of the big dataset
// (person attributes, matching the paper's published figures).
func RunFigure4b(w *Workspace, out io.Writer) Figure4bResult {
	d := w.ScoredDataset()
	clusters := hetero.ClusterHeterogeneity(d, core.KindHeteroPerson)
	pairs := hetero.PairHeterogeneities(d, core.KindHeteroPerson)
	res := Figure4bResult{
		ClusterHist: histogram.New(clusters, 20),
		PairHist:    histogram.New(pairs, 20),
		AvgCluster:  Mean(clusters),
		AvgPair:     Mean(pairs),
		MaxCluster:  Max(clusters),
		MaxPair:     Max(pairs),
	}
	fmt.Fprintln(out, "Figure 4b: NC heterogeneity distribution")
	fmt.Fprintf(out, "  clusters: avg %.3f max %.3f (paper 0.09 / 0.64)   pairs: avg %.3f max %.3f (paper 0.16 / 0.90)\n",
		res.AvgCluster, res.MaxCluster, res.AvgPair, res.MaxPair)
	res.ClusterHist.Fprint(out, "  cluster heterogeneity")
	res.PairHist.Fprint(out, "  pair heterogeneity")
	return res
}

// Figure4cResult is the comparators' pair-heterogeneity distributions.
type Figure4cResult struct {
	Hists map[string]histogram.Histogram
	Avg   map[string]float64 // paper: Cora 0.171, Census ~0.15, CDDB 0.218
	Max   map[string]float64 // paper: Cora 0.63, Census 0.46, CDDB 0.65
}

// RunFigure4c computes the pair heterogeneity of the three comparator
// datasets under the same scoring configuration.
func RunFigure4c(seed int64, out io.Writer) Figure4cResult {
	res := Figure4cResult{
		Hists: map[string]histogram.Histogram{},
		Avg:   map[string]float64{},
		Max:   map[string]float64{},
	}
	fmt.Fprintln(out, "Figure 4c: pair heterogeneity of the comparator datasets")
	for _, ds := range []*dedup.Dataset{
		datasets.Cora(seed), datasets.Census(seed), datasets.CDDB(seed),
	} {
		hs := custom.PairHeterogeneities(ds.Trimmed())
		res.Hists[ds.Name] = histogram.New(hs, 20)
		res.Avg[ds.Name] = Mean(hs)
		res.Max[ds.Name] = Max(hs)
		fmt.Fprintf(out, "  %-7s avg %.3f max %.3f\n", ds.Name, res.Avg[ds.Name], res.Max[ds.Name])
	}
	fmt.Fprintln(out, "  (paper: Cora 0.171/0.63, Census ~0.15/0.46, CDDB 0.218/0.65)")
	return res
}
