package bench

import (
	"fmt"
	"io"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/custom"
	"repro/internal/dapo"
	"repro/internal/dedup"
	"repro/internal/hetero"
)

// AblationBlockingResult compares the blockers the pipeline ships on the
// same dataset: the paper's entropy-pass SNM, SNM over hand-picked key
// passes, and trigram banding.
type AblationBlockingResult struct {
	SNMCandidates     int
	SNMRecall         float64
	KeyCandidates     int
	KeyRecall         float64
	TrigramCandidates int
	TrigramRecall     float64
}

// keyPassSpec is the hand-picked SNM configuration of the blocking
// ablation: phonetic last name, zip code, first-name prefix.
const keyPassSpec = "soundex(last_name), zip_code, prefix(first_name,4)"

// RunAblationBlocking contrasts the three blocking schemes on the NC1
// customization, all through blocking.Generate: SNM with the paper's
// parameters, SNM over keyPassSpec at the same window, and trigram banding
// at its defaults.
func RunAblationBlocking(w *Workspace, top int, out io.Writer) AblationBlockingResult {
	ds := NCDatasets(w, top)[0]
	snm := paperCandidates(ds)
	keyPasses, err := blocking.ParsePasses(ds, keyPassSpec)
	if err != nil {
		panic(err) // the NC customizations carry the register's schema
	}
	key, _ := blocking.Generate(ds, blocking.Config{Passes: keyPasses, Window: snmWindow})
	trigram, _ := blocking.Generate(ds, blocking.Config{Trigram: &blocking.TrigramConfig{}})

	res := AblationBlockingResult{
		SNMCandidates:     len(snm),
		SNMRecall:         blocking.Recall(ds, snm),
		KeyCandidates:     len(key),
		KeyRecall:         blocking.Recall(ds, key),
		TrigramCandidates: len(trigram),
		TrigramRecall:     blocking.Recall(ds, trigram),
	}
	fmt.Fprintf(out, "Ablation blocking on %s (%d records, %d true pairs)\n",
		ds.Name, ds.NumRecords(), ds.NumTruePairs())
	fmt.Fprintf(out, "  SNM (%d passes, w=%d): %d candidates, recall %.3f\n",
		snmPasses, snmWindow, res.SNMCandidates, res.SNMRecall)
	fmt.Fprintf(out, "  SNM (%s, w=%d): %d candidates, recall %.3f\n",
		keyPassSpec, snmWindow, res.KeyCandidates, res.KeyRecall)
	fmt.Fprintf(out, "  trigram banding (names, %d bands x %d rows): %d candidates, recall %.3f\n",
		blocking.DefaultBands, blocking.DefaultRows, res.TrigramCandidates, res.TrigramRecall)
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
		sel := dedup.SelectThreshold(ds, dedup.MeasureMELev, paperCandidates, sweepSteps, 0.5, w.Scale.Seed)
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
		sel := dedup.SelectThreshold(ds, dedup.MeasureMELev, paperCandidates, sweepSteps, 0.5, w.Scale.Seed)
		fsF1, _ := dedup.EvaluateFellegiSunter(ds, paperCandidates, 0.9, 0.5, w.Scale.Seed)
		res.Dataset = append(res.Dataset, ds.Name)
		res.ThresholdF1 = append(res.ThresholdF1, sel.ValidateF1)
		res.FSF1 = append(res.FSF1, fsF1)
		fmt.Fprintf(out, "  %-4s threshold matcher F1 %.3f | Fellegi-Sunter F1 %.3f\n",
			ds.Name, sel.ValidateF1, fsF1)
	}
	return res
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
	res.BaseF1, _ = dedup.EvaluateCandidatesParallel(baseDS, dedup.MeasureMELev, paperCandidates(baseDS), 50, dedup.ScoreOpts{}).BestF1()
	res.PollutedF1, _ = dedup.EvaluateCandidatesParallel(polDS, dedup.MeasureMELev, paperCandidates(polDS), 50, dedup.ScoreOpts{}).BestF1()

	fmt.Fprintf(out, "Ablation DaPo hybrid: heterogeneity %.3f -> %.3f, best F1 %.3f -> %.3f, +%d synthetic duplicates\n",
		res.BaseHetero, res.PollutedHetero, res.BaseF1, res.PollutedF1, res.ExtraDuplicate)
	fmt.Fprintln(out, "  (real outdated values preserved; additional errors injected at will)")
	return res
}
