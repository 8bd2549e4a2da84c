package bench

import (
	"io"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/errstats"
)

// shared small workspace for the package's tests; the workspace caches all
// generated state, so tests sharing it stay fast.
var testWS = NewWorkspace(Small)

func TestTable1Shape(t *testing.T) {
	var sb strings.Builder
	res := RunTable1(testWS, &sb)
	if len(res.Years) < 5 {
		t.Fatalf("years = %d", len(res.Years))
	}
	// The first snapshot introduces only new records and objects (paper:
	// 100 % rates for the 2008 row, which holds a single snapshot; our
	// calendar puts two snapshots into 2008, so assert on the snapshot).
	firstImport := testWS.Dataset(core.RemoveTrimmed).Imports()[0]
	if firstImport.NewRecords != firstImport.Rows {
		t.Errorf("first snapshot: %d new of %d rows, want all new", firstImport.NewRecords, firstImport.Rows)
	}
	if firstImport.NewObjects != firstImport.NewRecords {
		t.Errorf("first snapshot: %d new objects of %d new records, want equal", firstImport.NewObjects, firstImport.NewRecords)
	}
	// Later years have much lower new-record rates (snapshots repeat rows).
	later := res.Years[len(res.Years)-1]
	if later.NewRecordRate > 0.7 {
		t.Errorf("late-year new-record rate = %v, want well below the first year", later.NewRecordRate)
	}
	// Every year still contributes new records (paper: even the last four
	// snapshots contributed significantly).
	for _, y := range res.Years[1:] {
		if y.NewRecords == 0 {
			t.Errorf("year %d contributed no new records", y.Year)
		}
	}
	if !strings.Contains(sb.String(), "Table 1") {
		t.Error("missing table header in output")
	}
}

func TestTable1FormatDriftSpikes(t *testing.T) {
	// The default config drifts district formats at snapshot indices 7 and
	// 14; the drift year's new-record rate must exceed its neighbours'
	// (the paper's 2010/2012/2018 anomaly).
	res := RunTable1(testWS, io.Discard)
	rates := map[int]float64{}
	for _, y := range res.Years {
		rates[y.Year] = y.NewRecordRate
	}
	// Snapshot 7 of Calendar(2008, 8) lands in 2012 (snapshots: 2008x2,
	// 2009, 2010x2, 2011, 2012x2 -> index 7 = 2012-11-03).
	drift := rates[2012]
	if drift <= rates[2011] || drift <= rates[2013] {
		t.Errorf("drift year 2012 rate %v should exceed neighbours (2011 %v, 2013 %v)",
			drift, rates[2011], rates[2013])
	}
}

func TestTable2Shape(t *testing.T) {
	res := RunTable2(testWS, io.Discard)
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	none, exact, trim, person := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]
	// Monotone record counts: none > exact > trimming > person data.
	if !(none.Records > exact.Records && exact.Records > trim.Records && trim.Records > person.Records) {
		t.Errorf("record counts not monotone: %d / %d / %d / %d",
			none.Records, exact.Records, trim.Records, person.Records)
	}
	// The dominant effect: combining snapshots floods the data with exact
	// duplicates (paper: 67.3 % removed in the exact run).
	if exact.RemovedRecPct < 0.5 {
		t.Errorf("exact-mode removal = %.1f%%, want > 50%%", 100*exact.RemovedRecPct)
	}
	// Pair removal is even more extreme (paper: up to 98.8 %).
	if person.RemovedPairPct < exact.RemovedPairPct {
		t.Errorf("pair removal not monotone: %v < %v", person.RemovedPairPct, exact.RemovedPairPct)
	}
	if person.RemovedPairPct < 0.8 {
		t.Errorf("person-mode pair removal = %.1f%%, want > 80%%", 100*person.RemovedPairPct)
	}
	// Average cluster sizes decrease with stronger removal.
	if !(none.AvgClusterSize > exact.AvgClusterSize &&
		exact.AvgClusterSize > trim.AvgClusterSize &&
		trim.AvgClusterSize >= person.AvgClusterSize) {
		t.Errorf("avg cluster sizes not monotone: %.2f / %.2f / %.2f / %.2f",
			none.AvgClusterSize, exact.AvgClusterSize, trim.AvgClusterSize, person.AvgClusterSize)
	}
	// All modes keep the same object count (clusters are never removed).
	for _, mode := range Modes[1:] {
		if testWS.Dataset(mode).NumClusters() != testWS.Dataset(core.RemoveNone).NumClusters() {
			t.Errorf("mode %v changed the cluster count", mode)
		}
	}
}

func TestFigure1Shape(t *testing.T) {
	res := RunFigure1(testWS, io.Discard)
	avg := func(h map[int]int) float64 {
		rec, cl := 0, 0
		for size, n := range h {
			rec += size * n
			cl += n
		}
		if cl == 0 {
			return 0
		}
		return float64(rec) / float64(cl)
	}
	single := avg(res.SingleSnapshot)
	whole := avg(res.WholeAll)
	person := avg(res.WholePerson)
	// A single snapshot provides only small clusters (paper: 1.18).
	if single > 2 {
		t.Errorf("single-snapshot avg cluster = %v, want <= 2", single)
	}
	// The whole dataset provides much larger clusters (paper: 8.88 / 4.32).
	if whole <= single {
		t.Errorf("whole avg (%v) should exceed single-snapshot avg (%v)", whole, single)
	}
	if person > whole {
		t.Errorf("person-data avg (%v) should not exceed all-attribute avg (%v)", person, whole)
	}
}

func TestFigure3Examples(t *testing.T) {
	var sb strings.Builder
	res := RunFigure3Examples(&sb)
	if res.SoundPlausibility < 0.6 {
		t.Errorf("sound cluster plausibility = %v, want >= 0.6 (paper 0.81)", res.SoundPlausibility)
	}
	if res.UnsoundPlausibility > 0.5 {
		t.Errorf("unsound cluster plausibility = %v, want <= 0.5 (paper 0.33)", res.UnsoundPlausibility)
	}
	if res.SoundPlausibility <= res.UnsoundPlausibility {
		t.Error("plausibility must separate the sound from the unsound cluster")
	}
	if res.SoundHetero <= 0 || res.UnsoundHetero <= 0 {
		t.Errorf("heterogeneities = %v / %v, want > 0", res.SoundHetero, res.UnsoundHetero)
	}
	if !strings.Contains(sb.String(), "DB175272") {
		t.Error("example output missing")
	}
}

func TestFigure4aShape(t *testing.T) {
	res := RunFigure4a(testWS, io.Discard)
	// Most clusters are fully plausible (paper: avg 0.99, 92.8 % at 1.0).
	if res.AvgCluster < 0.9 {
		t.Errorf("avg plausibility = %v, want >= 0.9", res.AvgCluster)
	}
	if res.FracAtOne < 0.5 {
		t.Errorf("fraction at 1.0 = %v, want >= 0.5", res.FracAtOne)
	}
	// A small unsound tail exists (the simulator misuses NCIDs on purpose;
	// last-name changes through marriage thicken the tail slightly beyond
	// the paper's 0.43 %).
	if res.FracBelow0_8 == 0 {
		t.Error("no low-plausibility clusters at all; unsound clusters missing")
	}
	if res.FracBelow0_8 > 0.1 {
		t.Errorf("fraction below 0.8 = %v, want a thin tail (< 10%%)", res.FracBelow0_8)
	}
	if res.FracBelow0_5 > 0.02 {
		t.Errorf("fraction below 0.5 = %v, want nearly none", res.FracBelow0_5)
	}
}

func TestFigure4bShape(t *testing.T) {
	res := RunFigure4b(testWS, io.Discard)
	// The dataset as a whole is clean and homogeneous (paper: cluster avg
	// 0.09, pair avg 0.16).
	if res.AvgCluster > 0.3 {
		t.Errorf("avg cluster heterogeneity = %v, want <= 0.3", res.AvgCluster)
	}
	if res.AvgCluster <= 0 {
		t.Error("avg cluster heterogeneity is zero; exact duplicates were supposed to be removed")
	}
	if res.MaxPair <= res.AvgPair {
		t.Errorf("max pair (%v) should exceed avg pair (%v)", res.MaxPair, res.AvgPair)
	}
	if res.MaxPair > 1 || res.MaxCluster > 1 {
		t.Errorf("heterogeneity out of range: %v / %v", res.MaxPair, res.MaxCluster)
	}
}

func TestFigure4cShape(t *testing.T) {
	res := RunFigure4c(1, io.Discard)
	for _, name := range []string{"Cora", "Census", "CDDB"} {
		if res.Avg[name] <= 0 || res.Avg[name] > 0.5 {
			t.Errorf("%s avg heterogeneity = %v, want in (0, 0.5]", name, res.Avg[name])
		}
	}
	// CDDB is the dirtiest comparator (paper: 0.218 vs 0.171 vs ~0.15).
	if res.Avg["CDDB"] <= res.Avg["Census"] {
		t.Errorf("CDDB (%v) should be dirtier than Census (%v)", res.Avg["CDDB"], res.Avg["Census"])
	}
}

func TestTable4Shape(t *testing.T) {
	res := RunTable4(testWS, io.Discard)
	// NC percentages are small, absolute counts substantial; Census's typo
	// percentage towers above NC's (paper: 65 % vs 0.9 %).
	// Share of duplicate pairs showing a typo in its most common attribute.
	typoPct := func(t *errstats.Table) float64 {
		_, n := t.PairBased[errstats.Typo].MostCommon()
		return float64(n) / float64(t.TotalPairs)
	}
	ncTypo := typoPct(res.NC)
	censusTypo := typoPct(res.Census)
	if censusTypo <= ncTypo {
		t.Errorf("census typo pct (%v) should exceed NC (%v)", censusTypo, ncTypo)
	}
	if ncTypo <= 0 {
		t.Error("NC dataset shows no typos at all")
	}
	// NC contains multi-attribute irregularities (paper: value confusions,
	// integrated and scattered values occur in NC).
	multi := res.NC.PairBased[errstats.ValueConfusion].Total +
		res.NC.PairBased[errstats.IntegratedValue].Total +
		res.NC.PairBased[errstats.ScatteredValue].Total
	if multi == 0 {
		t.Error("NC dataset shows no multi-attribute irregularities")
	}
	// Missing values dominate the singleton profile.
	if res.NC.Singletons[errstats.Missing].Total == 0 {
		t.Error("NC dataset shows no missing values")
	}
	// Cora is sparse: its missing percentage beats NC's most common.
	_, missing := res.Cora.Singletons[errstats.Missing].MostCommon()
	if pct := float64(missing) / float64(res.Cora.TotalRecords); pct <= 0.1 {
		t.Errorf("Cora missing pct = %v, want > 0.1", pct)
	}
}

func TestTable3AndFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("usability experiment is the slowest integration test")
	}
	const top = 60
	t3 := RunTable3(testWS, top, io.Discard)
	if len(t3.Rows) != 6 {
		t.Fatalf("table 3 rows = %d", len(t3.Rows))
	}
	byName := map[string]int{}
	for i, r := range t3.Rows {
		byName[r.Name] = i
	}
	nc1 := t3.Rows[byName["NC1"]]
	nc2 := t3.Rows[byName["NC2"]]
	nc3 := t3.Rows[byName["NC3"]]
	// The customization must deliver increasing dirtiness (paper: avg
	// heterogeneity 0.09 / 0.304 / 0.487).
	if nc1.DupPairs > 0 && nc2.DupPairs > 0 && nc1.AvgHetero >= nc2.AvgHetero {
		t.Errorf("NC1 avg hetero (%v) should be below NC2 (%v)", nc1.AvgHetero, nc2.AvgHetero)
	}
	if nc2.DupPairs > 0 && nc3.DupPairs > 0 && nc2.AvgHetero >= nc3.AvgHetero {
		t.Errorf("NC2 avg hetero (%v) should be below NC3 (%v)", nc2.AvgHetero, nc3.AvgHetero)
	}

	results := RunFigure5(testWS, top, io.Discard)
	if results[0].Dataset != "NC1" || results[1].Dataset != "NC2" || results[0].Curves[0].Measure != dedup.MeasureMELev {
		t.Fatalf("figure 5 results not in NC1, NC2, NC3 x ME/Lev-first order")
	}
	// NC1 is nearly perfectly detectable (paper: ~1.0 for all measures).
	for _, c := range results[0].Curves {
		if f1, _ := c.BestF1(); f1 < 0.85 {
			t.Errorf("NC1 %s best F1 = %v, want >= 0.85", c.Measure, f1)
		}
	}
	// Detection quality decreases with heterogeneity (paper's headline
	// usability claim). NC3 may be tiny at test scale; only compare when
	// it has enough pairs.
	nc1Best, _ := results[0].Curves[0].BestF1()
	nc2Best, _ := results[1].Curves[0].BestF1()
	if nc2.DupPairs > 10 && nc2Best > nc1Best {
		t.Errorf("NC2 best F1 (%v) should not exceed NC1 (%v)", nc2Best, nc1Best)
	}
}

func TestFigure5Comparators(t *testing.T) {
	if testing.Short() {
		t.Skip("comparator evaluation is slow")
	}
	results := RunFigure5Comparators(1, io.Discard)
	for i, name := range []string{"Cora", "Census", "CDDB"} {
		if results[i].Dataset != name {
			t.Fatalf("comparator %d is %s, want %s", i, results[i].Dataset, name)
		}
		found := false
		for _, c := range results[i].Curves {
			f1, _ := c.BestF1()
			if f1 > 0.3 {
				found = true
			}
			if f1 < 0 || f1 > 1 {
				t.Errorf("%s F1 out of range: %v", name, f1)
			}
		}
		if !found {
			t.Errorf("%s: no measure reached F1 0.3", name)
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	h := RunAblationHashing(testWS, io.Discard)
	if !h.SameDistinct {
		t.Error("md5 and fnv disagree on distinct row counts")
	}
	win := RunAblationWindow(testWS, 40, io.Discard)
	for i := 1; i < len(win.Windows); i++ {
		if win.Candidates[i] < win.Candidates[i-1] {
			t.Errorf("candidate volume not monotone in window: %v", win.Candidates)
		}
		if win.Recalls[i] < win.Recalls[i-1]-1e-9 {
			t.Errorf("blocking recall not monotone in window: %v", win.Recalls)
		}
	}
	wres := RunAblationWeights(testWS, 40, io.Discard)
	if wres.EntropyF1 <= 0 {
		t.Errorf("entropy F1 = %v", wres.EntropyF1)
	}
	g := RunAblationGeneration(testWS, io.Discard)
	if g.HistOutdated == 0 {
		t.Error("historical generator produced no multi-year clusters")
	}
	if g.HistRowsPerSec <= 0 || g.PolluteRowsPerSec <= 0 {
		t.Error("throughputs not measured")
	}
	n := RunAblationNameScoring(testWS, io.Discard)
	if n.GenJaccNanosPerOp <= 0 || n.MongeElkanNanosOp <= 0 {
		t.Error("name scoring not measured")
	}
	if n.MeanAbsDiff > 0.2 {
		t.Errorf("hybrid measures disagree heavily: %v", n.MeanAbsDiff)
	}
	blk := RunAblationBlocking(testWS, 40, io.Discard)
	if blk.SNMRecall < 0.9 {
		t.Errorf("SNM recall on NC1 = %v, want >= 0.9", blk.SNMRecall)
	}
	if blk.KeyCandidates == 0 || blk.KeyRecall <= 0 {
		t.Errorf("key-pass SNM degenerate: %+v", blk)
	}
	if blk.TrigramCandidates == 0 || blk.TrigramRecall <= 0 {
		t.Errorf("trigram banding degenerate: %+v", blk)
	}
	pol := RunAblationPollution(testWS, io.Discard)
	if pol.PollutedHetero <= pol.BaseHetero {
		t.Errorf("pollution did not raise heterogeneity: %v -> %v", pol.BaseHetero, pol.PollutedHetero)
	}
	if pol.PollutedF1 >= pol.BaseF1 {
		t.Errorf("pollution did not raise difficulty: F1 %v -> %v", pol.BaseF1, pol.PollutedF1)
	}
	th := RunAblationThreshold(testWS, 40, io.Discard)
	if len(th.Selected) != 3 {
		t.Fatalf("threshold ablation = %d datasets", len(th.Selected))
	}
	for i, sel := range th.Selected {
		if sel.Threshold <= 0 || sel.Threshold >= 1 {
			t.Errorf("%s threshold = %v", th.Dataset[i], sel.Threshold)
		}
	}
	fs := RunAblationFS(testWS, 40, io.Discard)
	if len(fs.FSF1) != 3 {
		t.Fatalf("FS ablation = %d datasets", len(fs.FSF1))
	}
	for i, f1 := range fs.FSF1 {
		if f1 < 0 || f1 > 1 {
			t.Errorf("%s FS F1 = %v", fs.Dataset[i], f1)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	if got := Mean([]float64{1, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if got := Max([]float64{1, 3, 2}); got != 3 {
		t.Errorf("Max = %v", got)
	}
	if got := Min([]float64{2, 1, 3}); got != 1 {
		t.Errorf("Min = %v", got)
	}
	if got := FractionBelow([]float64{0.1, 0.5, 0.9}, 0.5); got < 0.33 || got > 0.34 {
		t.Errorf("FractionBelow = %v", got)
	}
}
