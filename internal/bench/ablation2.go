package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/custom"
	"repro/internal/dapo"
	"repro/internal/dedup"
	"repro/internal/hetero"
)

// AblationBlockingResult compares the paper's multi-pass Sorted
// Neighborhood against standard blocking and canopy blocking on the same
// dataset.
type AblationBlockingResult struct {
	SNMCandidates    int
	SNMRecall        float64
	StdCandidates    int
	StdRecall        float64
	CanopyCandidates int
	CanopyRecall     float64
}

// RunAblationBlocking contrasts the three blocking schemes on the NC1
// customization: SNM with the paper's parameters, standard blocking on
// last-name Soundex / zip code / first-name prefix, and canopy blocking
// over the name attributes.
func RunAblationBlocking(w *Workspace, top int, out io.Writer) AblationBlockingResult {
	ds := NCDatasets(w, top)[0]
	passes := dedup.MostUniqueAttrs(ds, snmPasses)
	snm := dedup.SortedNeighborhood(ds, passes, snmWindow)

	lastIdx, firstIdx, zipIdx := attrIndex(ds, "last_name"), attrIndex(ds, "first_name"), attrIndex(ds, "zip_code")
	keys := []dedup.KeyFunc{}
	if lastIdx >= 0 {
		keys = append(keys, dedup.SoundexKey(lastIdx))
	}
	if zipIdx >= 0 {
		keys = append(keys, dedup.ExactKey(zipIdx))
	}
	if firstIdx >= 0 {
		keys = append(keys, dedup.PrefixKey(firstIdx, 4))
	}
	std := dedup.StandardBlocking(ds, keys, 0)
	canopy := dedup.CanopyBlocking(ds, dedup.CanopyConfig{
		Attrs: ds.NameAttrs, Loose: 0.25, Tight: 0.75, Seed: w.Scale.Seed,
	})

	res := AblationBlockingResult{
		SNMCandidates:    len(snm),
		SNMRecall:        dedup.BlockingRecall(ds, snm),
		StdCandidates:    len(std),
		StdRecall:        dedup.BlockingRecall(ds, std),
		CanopyCandidates: len(canopy),
		CanopyRecall:     dedup.BlockingRecall(ds, canopy),
	}
	fmt.Fprintf(out, "Ablation blocking on %s (%d records, %d true pairs)\n",
		ds.Name, ds.NumRecords(), ds.NumTruePairs())
	fmt.Fprintf(out, "  SNM (%d passes, w=%d): %d candidates, recall %.3f\n",
		snmPasses, snmWindow, res.SNMCandidates, res.SNMRecall)
	fmt.Fprintf(out, "  standard (soundex/zip/prefix): %d candidates, recall %.3f\n",
		res.StdCandidates, res.StdRecall)
	fmt.Fprintf(out, "  canopy (names, loose 0.25 / tight 0.75): %d candidates, recall %.3f\n",
		res.CanopyCandidates, res.CanopyRecall)
	return res
}

// AblationThresholdResult is the threshold-transfer experiment: thresholds
// trained on half the clusters, validated on the other half, per NC
// setting. The paper's "the threshold had to be set much more carefully"
// becomes measurable as the train→validate gap.
type AblationThresholdResult struct {
	Dataset  []string
	Selected []dedup.ThresholdSelection
}

// RunAblationThreshold runs the selection protocol on NC1-NC3 with the
// ME/Lev measure.
func RunAblationThreshold(w *Workspace, top int, out io.Writer) AblationThresholdResult {
	var res AblationThresholdResult
	fmt.Fprintln(out, "Ablation threshold transfer (train on half the clusters, validate on the rest)")
	for _, ds := range NCDatasets(w, top) {
		sel := dedup.SelectThreshold(ds, dedup.MeasureMELev, snmPasses, snmWindow, sweepSteps, 0.5, w.Scale.Seed)
		res.Dataset = append(res.Dataset, ds.Name)
		res.Selected = append(res.Selected, sel)
		fmt.Fprintf(out, "  %-4s threshold %.2f: train F1 %.3f -> validate F1 %.3f\n",
			ds.Name, sel.Threshold, sel.TrainF1, sel.ValidateF1)
	}
	return res
}

// AblationFSResult compares the Fellegi-Sunter probabilistic matcher
// (trained on half the gold clusters) against the paper's
// similarity-threshold matcher under the same split.
type AblationFSResult struct {
	Dataset     []string
	ThresholdF1 []float64 // ME/Lev threshold matcher, validated
	FSF1        []float64 // Fellegi-Sunter, validated
}

// RunAblationFS runs the comparison on NC1-NC3: both approaches train on
// half the clusters and report validation F1.
func RunAblationFS(w *Workspace, top int, out io.Writer) AblationFSResult {
	var res AblationFSResult
	fmt.Fprintln(out, "Ablation Fellegi-Sunter vs similarity threshold (validated on held-out clusters)")
	for _, ds := range NCDatasets(w, top) {
		sel := dedup.SelectThreshold(ds, dedup.MeasureMELev, snmPasses, snmWindow, sweepSteps, 0.5, w.Scale.Seed)
		fsF1, _ := dedup.EvaluateFellegiSunter(ds, snmPasses, snmWindow, 0.9, 0.5, w.Scale.Seed)
		res.Dataset = append(res.Dataset, ds.Name)
		res.ThresholdF1 = append(res.ThresholdF1, sel.ValidateF1)
		res.FSF1 = append(res.FSF1, fsF1)
		fmt.Fprintf(out, "  %-4s threshold matcher F1 %.3f | Fellegi-Sunter F1 %.3f\n",
			ds.Name, sel.ValidateF1, fsF1)
	}
	return res
}

func attrIndex(ds *dedup.Dataset, name string) int {
	for i, a := range ds.Attrs {
		if a == name {
			return i
		}
	}
	return -1
}

// AblationPollutionResult quantifies the DaPo hybrid (the paper's future
// work §8): injecting additional errors into the historical dataset shifts
// its heterogeneity and detection difficulty at will, while the real
// outdated values remain.
type AblationPollutionResult struct {
	BaseHetero     float64
	PollutedHetero float64
	BaseF1         float64
	PollutedF1     float64
	ExtraDuplicate int
}

// RunAblationPollution pollutes the workspace's dataset and measures the
// shift.
func RunAblationPollution(w *Workspace, out io.Writer) AblationPollutionResult {
	base := w.ScoredDataset()
	res := AblationPollutionResult{
		BaseHetero: Mean(hetero.ClusterHeterogeneity(base, core.KindHeteroPerson)),
	}

	cfg := dapo.DefaultConfig(w.Scale.Seed)
	cfg.RecordFraction = 0.5
	cfg.Intensity = 2
	polluted, st := dapo.Pollute(base, cfg)
	res.ExtraDuplicate = st.ExtraDuplicates
	hetero.UpdateParallel(polluted, 0)
	res.PollutedHetero = Mean(hetero.ClusterHeterogeneity(polluted, core.KindHeteroPerson))

	// Evaluate on the 150 largest clusters of each variant to keep the
	// detection run small; the full-range customization drops nothing.
	full := custom.Config{Name: "base", HLow: 0, HHigh: 1, SelectTop: 150, Seed: w.Scale.Seed}
	baseDS := custom.Build(base, full)
	full.Name = "polluted"
	polDS := custom.Build(polluted, full)
	res.BaseF1, _ = dedup.Evaluate(baseDS, dedup.MeasureMELev, snmPasses, snmWindow, 50).BestF1()
	res.PollutedF1, _ = dedup.Evaluate(polDS, dedup.MeasureMELev, snmPasses, snmWindow, 50).BestF1()

	fmt.Fprintf(out, "Ablation DaPo hybrid: heterogeneity %.3f -> %.3f, best F1 %.3f -> %.3f, +%d synthetic duplicates\n",
		res.BaseHetero, res.PollutedHetero, res.BaseF1, res.PollutedF1, res.ExtraDuplicate)
	fmt.Fprintln(out, "  (real outdated values preserved; additional errors injected at will)")
	return res
}

// AblationMeasuresResult is the measure zoo: best F1 per available measure
// on the medium-dirtiness customization.
type AblationMeasuresResult struct {
	Measure []dedup.Measure
	BestF1  []float64
}

// RunAblationMeasures extends Figure 5 beyond the paper's three measures:
// all seven record measures compete on NC2, where the measure choice
// matters (§6.5's observation for dirtier data).
func RunAblationMeasures(w *Workspace, top int, out io.Writer) AblationMeasuresResult {
	ds := NCDatasets(w, top)[1]
	passes := dedup.MostUniqueAttrs(ds, snmPasses)
	cands := dedup.SortedNeighborhood(ds, passes, snmWindow)
	var res AblationMeasuresResult
	fmt.Fprintf(out, "Ablation measure zoo on %s (%d records, %d true pairs)\n",
		ds.Name, ds.NumRecords(), ds.NumTruePairs())
	for _, m := range dedup.AllMeasures {
		curve := dedup.EvaluateCandidatesParallel(ds, m, cands, sweepSteps, dedup.ScoreOpts{})
		f1, th := curve.BestF1()
		res.Measure = append(res.Measure, m)
		res.BestF1 = append(res.BestF1, f1)
		fmt.Fprintf(out, "  %-16s best F1 %.3f @ threshold %.2f\n", m, f1, th)
	}
	return res
}
