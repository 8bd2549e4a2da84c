package bench

import (
	"fmt"
	"io"

	"repro/internal/blocking"
	"repro/internal/custom"
	"repro/internal/datasets"
	"repro/internal/dedup"
)

// snmPasses and snmWindow are the paper's blocking parameters (§6.5): a
// multi-pass Sorted Neighborhood over the five most unique attributes with
// window 20.
const (
	snmPasses     = 5
	snmWindow     = 20
	sweepSteps    = 100
	defaultSample = 0 // 0 = all clusters; the paper samples 100k of 13.5M
)

// paperCandidates is the paper's candidate generation for one dataset:
// one SNM pass per most-unique attribute, snmPasses of them, window
// snmWindow.
func paperCandidates(ds *dedup.Dataset) []dedup.Pair {
	pairs, _ := blocking.Generate(ds, blocking.Config{Passes: blocking.EntropyPasses(ds, snmPasses), Window: snmWindow})
	return pairs
}

// NCDatasets builds the NC1/NC2/NC3 customizations from the workspace's
// scored dataset. top bounds the cluster count of each (the paper uses
// 10 000).
func NCDatasets(w *Workspace, top int) []*dedup.Dataset {
	d := w.ScoredDataset()
	return []*dedup.Dataset{
		custom.Build(d, custom.NC1Config(w.Scale.Seed, defaultSample, top)),
		custom.Build(d, custom.NC2Config(w.Scale.Seed, defaultSample, top)),
		custom.Build(d, custom.NC3Config(w.Scale.Seed, defaultSample, top)),
	}
}

// Table3Result reproduces the characteristics table of all six evaluated
// datasets.
type Table3Result struct {
	Rows []custom.Characteristics
}

// RunTable3 describes Cora, Census, CDDB and the NC1-NC3 customizations.
func RunTable3(w *Workspace, top int, out io.Writer) Table3Result {
	var res Table3Result
	for _, ds := range []*dedup.Dataset{
		datasets.Cora(w.Scale.Seed), datasets.Census(w.Scale.Seed), datasets.CDDB(w.Scale.Seed),
	} {
		res.Rows = append(res.Rows, custom.Describe(ds.Trimmed()))
	}
	for _, ds := range NCDatasets(w, top) {
		res.Rows = append(res.Rows, custom.Describe(ds))
	}
	fmt.Fprintln(out, "Table 3: characteristics of the evaluated datasets")
	fmt.Fprintf(out, "%-8s %9s %7s %11s %10s %8s %9s %9s %9s %9s\n",
		"dataset", "#records", "#attrs", "#dup pairs", "#clusters", "#non-sg",
		"max size", "avg size", "max het", "avg het")
	for _, r := range res.Rows {
		fmt.Fprintf(out, "%-8s %9d %7d %11d %10d %8d %9d %9.2f %9.2f %9.3f\n",
			r.Name, r.Records, r.Attributes, r.DupPairs, r.Clusters, r.NonSingletons,
			r.MaxCluster, r.AvgCluster, r.MaxHetero, r.AvgHetero)
	}
	return res
}

// Figure5Result is one dataset's F1-vs-threshold curves for the three
// measures.
type Figure5Result struct {
	Dataset string
	Curves  []dedup.Curve
}

// RunFigure5 evaluates the three measures on the NC1-NC3 customizations
// (Fig. 5a-c).
func RunFigure5(w *Workspace, top int, out io.Writer) []Figure5Result {
	var res []Figure5Result
	for _, ds := range NCDatasets(w, top) {
		res = append(res, evalDataset(ds, out))
	}
	return res
}

// RunFigure5Comparators evaluates the measures on Cora, Census and CDDB
// (Fig. 5d-f).
func RunFigure5Comparators(seed int64, out io.Writer) []Figure5Result {
	var res []Figure5Result
	for _, ds := range []*dedup.Dataset{
		datasets.Cora(seed), datasets.Census(seed), datasets.CDDB(seed),
	} {
		res = append(res, evalDataset(ds.Trimmed(), out))
	}
	return res
}

// evalDataset runs the three detection pipelines on one dataset and prints
// its best-F1 summary plus a sampled curve.
func evalDataset(ds *dedup.Dataset, out io.Writer) Figure5Result {
	res := Figure5Result{Dataset: ds.Name}
	fmt.Fprintf(out, "Figure 5: %s (%d records, %d true pairs)\n", ds.Name, ds.NumRecords(), ds.NumTruePairs())
	cands := paperCandidates(ds)
	fmt.Fprintf(out, "  blocking: %d candidate pairs, recall %.3f\n",
		len(cands), blocking.Recall(ds, cands))
	for _, m := range dedup.Measures {
		curve := dedup.EvaluateCandidatesParallel(ds, m, cands, sweepSteps, dedup.ScoreOpts{})
		res.Curves = append(res.Curves, curve)
		f1, th := curve.BestF1()
		fmt.Fprintf(out, "  %-12s best F1 %.3f @ threshold %.2f | F1@0.55 %.3f  F1@0.70 %.3f  F1@0.85 %.3f\n",
			m, f1, th, f1At(curve, 0.55), f1At(curve, 0.70), f1At(curve, 0.85))
	}
	return res
}

// f1At reads the curve's F1 at (or next to) the given threshold.
func f1At(c dedup.Curve, t float64) float64 {
	best := 0.0
	bestDist := 2.0
	for _, p := range c.Points {
		d := p.Threshold - t
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			bestDist = d
			best = p.F1
		}
	}
	return best
}
