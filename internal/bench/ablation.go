package bench

import (
	"crypto/md5"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/simil"
	"repro/internal/synth"
	"repro/internal/voter"
)

// The ablation benches quantify the design choices DESIGN.md calls out.

// AblationHashingResult compares MD5 (the paper's choice) against FNV-1a
// for record hashing: dedup outcome must agree; throughput differs.
type AblationHashingResult struct {
	MD5Nanos     int64
	FNVNanos     int64
	SameDistinct bool
}

// RunAblationHashing hashes every row of the workspace under both digests.
func RunAblationHashing(w *Workspace, out io.Writer) AblationHashingResult {
	snaps := w.Snapshots()
	cols := voter.HashColumns(voter.HashTrimmed)

	md5Set := map[voter.Hash]bool{}
	start := time.Now()
	rows := 0
	for _, s := range snaps {
		for _, r := range s.Records {
			md5Set[voter.HashRecord(r, voter.HashTrimmed)] = true
			rows++
		}
	}
	md5Nanos := time.Since(start).Nanoseconds()

	fnvSet := map[uint64]bool{}
	start = time.Now()
	for _, s := range snaps {
		for _, r := range s.Records {
			h := fnv.New64a()
			for _, c := range cols {
				h.Write([]byte(trimmed(r.Values[c])))
				h.Write([]byte{0x1f})
			}
			fnvSet[h.Sum64()] = true
		}
	}
	fnvNanos := time.Since(start).Nanoseconds()

	res := AblationHashingResult{
		MD5Nanos:     md5Nanos,
		FNVNanos:     fnvNanos,
		SameDistinct: len(md5Set) == len(fnvSet),
	}
	fmt.Fprintf(out, "Ablation hashing: %d rows | md5 %.1f ms (%d distinct) | fnv64a %.1f ms (%d distinct) | agree=%v\n",
		rows, float64(md5Nanos)/1e6, len(md5Set), float64(fnvNanos)/1e6, len(fnvSet), res.SameDistinct)
	fmt.Fprintf(out, "  (md5 digest width: %d bits; fnv: 64 — the paper accepts rare collisions either way)\n", md5.Size*8)
	return res
}

// AblationWindowResult sweeps the SNM window size.
type AblationWindowResult struct {
	Windows    []int
	Candidates []int
	Recalls    []float64
}

// RunAblationWindow measures blocking recall and candidate volume as the
// window grows (the paper fixes w = 20 and loses no true pair).
func RunAblationWindow(w *Workspace, top int, out io.Writer) AblationWindowResult {
	ds := NCDatasets(w, top)[1] // NC2: the medium setting
	passes := blocking.EntropyPasses(ds, snmPasses)
	res := AblationWindowResult{}
	fmt.Fprintf(out, "Ablation SNM window on %s (%d records, %d true pairs)\n",
		ds.Name, ds.NumRecords(), ds.NumTruePairs())
	for _, win := range []int{2, 5, 10, 20, 40, 80} {
		cands, _ := blocking.Generate(ds, blocking.Config{Passes: passes, Window: win})
		rec := blocking.Recall(ds, cands)
		res.Windows = append(res.Windows, win)
		res.Candidates = append(res.Candidates, len(cands))
		res.Recalls = append(res.Recalls, rec)
		fmt.Fprintf(out, "  w=%3d: %8d candidates, blocking recall %.3f\n", win, len(cands), rec)
	}
	return res
}

// AblationWeightsResult contrasts entropy weights with uniform weights in
// the matcher.
type AblationWeightsResult struct {
	EntropyF1 float64
	UniformF1 float64
}

// RunAblationWeights compares the matcher's entropy weighting against a
// uniform weighting on the NC2 customization.
func RunAblationWeights(w *Workspace, top int, out io.Writer) AblationWeightsResult {
	ds := NCDatasets(w, top)[1]
	cands := paperCandidates(ds)
	entropyF1, _ := dedup.EvaluateCandidatesParallel(ds, dedup.MeasureMELev, cands, sweepSteps, dedup.ScoreOpts{}).BestF1()

	res := AblationWeightsResult{EntropyF1: entropyF1, UniformF1: evaluateUniform(ds, cands)}
	fmt.Fprintf(out, "Ablation weights on %s: entropy best F1 %.3f vs uniform %.3f\n",
		ds.Name, res.EntropyF1, res.UniformF1)
	return res
}

// evaluateUniform scores the candidates under uniform attribute weights —
// a plain unweighted mean of value similarities — and returns the best F1
// of the same threshold sweep.
func evaluateUniform(ds *dedup.Dataset, cands []dedup.Pair) float64 {
	type scored struct {
		sim float64
		dup bool
	}
	var sp []scored
	for _, p := range cands {
		a, b := ds.Records[p.I], ds.Records[p.J]
		sum, n := 0.0, 0
		for c := range ds.Attrs {
			sum += simil.DamerauLevenshteinSimilarity(a[c], b[c])
			n++
		}
		sp = append(sp, scored{sum / float64(n), ds.IsDuplicate(p.I, p.J)})
	}
	totalTrue := ds.NumTruePairs()
	best := 0.0
	for s := 0; s <= sweepSteps; s++ {
		t := float64(s) / float64(sweepSteps)
		tp, n := 0, 0
		for _, x := range sp {
			if x.sim >= t {
				n++
				if x.dup {
					tp++
				}
			}
		}
		if n == 0 || totalTrue == 0 {
			continue
		}
		p := float64(tp) / float64(n)
		r := float64(tp) / float64(totalTrue)
		if p+r > 0 {
			if f1 := 2 * p * r / (p + r); f1 > best {
				best = f1
			}
		}
	}
	return best
}

// AblationGenerationResult compares the historical simulator against the
// pollution-tool baseline: generation throughput and outdated-value
// coverage (the pollution tool cannot create genuinely outdated values).
type AblationGenerationResult struct {
	HistRowsPerSec    float64
	PolluteRowsPerSec float64
	HistOutdated      int // clusters containing records from >= 3 distinct years
	PolluteOutdated   int // always 0: a single-date generator has no history
}

// RunAblationGeneration measures both generators at comparable output size.
func RunAblationGeneration(w *Workspace, out io.Writer) AblationGenerationResult {
	cfg := w.SynthConfig()
	cfg.Snapshots = synth.Calendar(2008, w.Scale.Years)
	start := time.Now()
	snaps := synth.Generate(cfg)
	histDur := time.Since(start)
	histRows := 0
	for _, s := range snaps {
		histRows += len(s.Records)
	}

	pcfg := synth.DefaultPolluteConfig(w.Scale.Seed, w.Scale.InitialVoters)
	start = time.Now()
	psnap := synth.Pollute(pcfg)
	polDur := time.Since(start)

	// Outdated-value coverage: cluster spans across years.
	spanYears := map[string]map[string]bool{}
	for _, s := range snaps {
		year := s.Date[:4]
		for _, r := range s.Records {
			id := r.NCID()
			if spanYears[id] == nil {
				spanYears[id] = map[string]bool{}
			}
			spanYears[id][year] = true
		}
	}
	histOutdated := 0
	for _, years := range spanYears {
		if len(years) >= 3 {
			histOutdated++
		}
	}

	res := AblationGenerationResult{
		HistRowsPerSec:    float64(histRows) / histDur.Seconds(),
		PolluteRowsPerSec: float64(len(psnap.Records)) / polDur.Seconds(),
		HistOutdated:      histOutdated,
	}
	fmt.Fprintf(out, "Ablation generation: historical %d rows @ %.0f rows/s | pollution %d rows @ %.0f rows/s\n",
		histRows, res.HistRowsPerSec, len(psnap.Records), res.PolluteRowsPerSec)
	fmt.Fprintf(out, "  multi-year clusters (real outdated values): historical %d, pollution 0 by construction\n",
		res.HistOutdated)
	return res
}

// AblationNameScoringResult compares the Generalized Jaccard (paper's
// plausibility choice) against Monge-Elkan (the heterogeneity fallback) on
// name-tuple scoring cost and agreement.
type AblationNameScoringResult struct {
	GenJaccNanosPerOp int64
	MongeElkanNanosOp int64
	MeanAbsDiff       float64
}

// RunAblationNameScoring measures both hybrid measures over the name tuples
// of the trimmed dataset's duplicate pairs.
func RunAblationNameScoring(w *Workspace, out io.Writer) AblationNameScoringResult {
	d := w.Dataset(core.RemoveTrimmed)
	var tuples [][2][]string
	d.Clusters(func(c *core.Cluster) bool {
		for i := 1; i < len(c.Records) && len(tuples) < 5000; i++ {
			a := nameTuple(c.Records[i].Rec)
			b := nameTuple(c.Records[0].Rec)
			tuples = append(tuples, [2][]string{a, b})
		}
		return len(tuples) < 5000
	})
	if len(tuples) == 0 {
		fmt.Fprintln(out, "Ablation name scoring: no duplicate pairs available")
		return AblationNameScoringResult{}
	}

	start := time.Now()
	gj := make([]float64, len(tuples))
	for i, t := range tuples {
		gj[i] = simil.GeneralizedJaccard(t[0], t[1], simil.ExtendedDamerauLevenshtein, 0.5)
	}
	gjNanos := time.Since(start).Nanoseconds() / int64(len(tuples))

	start = time.Now()
	me := make([]float64, len(tuples))
	for i, t := range tuples {
		me[i] = simil.MongeElkan(t[0], t[1], simil.ExtendedDamerauLevenshtein)
	}
	meNanos := time.Since(start).Nanoseconds() / int64(len(tuples))

	diff := 0.0
	for i := range gj {
		d := gj[i] - me[i]
		if d < 0 {
			d = -d
		}
		diff += d
	}
	res := AblationNameScoringResult{
		GenJaccNanosPerOp: gjNanos,
		MongeElkanNanosOp: meNanos,
		MeanAbsDiff:       diff / float64(len(gj)),
	}
	fmt.Fprintf(out, "Ablation name scoring over %d pairs: GenJaccard %d ns/op, Monge-Elkan %d ns/op, mean |Δ| %.4f\n",
		len(tuples), res.GenJaccNanosPerOp, res.MongeElkanNanosOp, res.MeanAbsDiff)
	return res
}

func nameTuple(r voter.Record) []string {
	return []string{
		trimmed(r.Values[voter.IdxFirstName]),
		trimmed(r.Values[voter.IdxMiddleName]),
		trimmed(r.Values[voter.IdxLastName]),
	}
}

func trimmed(s string) string {
	for len(s) > 0 && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}
