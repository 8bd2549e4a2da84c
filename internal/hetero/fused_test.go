package hetero

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/simil"
	"repro/internal/synth"
)

// naiveValueSim is the four-way comparison as the paper states it, with no
// shortcut: the reference the kernel's shortcuts are held against.
func naiveValueSim(a, b string) float64 {
	la, lb := strings.ToLower(a), strings.ToLower(b)
	s := simil.DamerauLevenshteinSimilarity(a, b)
	s += simil.DamerauLevenshteinSimilarity(la, lb)
	s += simil.MongeElkanDL(a, b)
	s += simil.MongeElkanDL(la, lb)
	return s / 4
}

// FuzzValueSimShortcuts holds the kernel's three bit-identity claims against
// arbitrary byte strings: the equal-value and fold-invariant shortcuts change
// nothing, and the result does not depend on argument order.
func FuzzValueSimShortcuts(f *testing.F) {
	seeds := []string{
		"", "SMITH", "smith", "SmItH", "ANH THI", "THI ANH", "O'BRIEN-LEE 3RD",
		"K", "\u212a", // Kelvin sign: lower-cases to ASCII k
		"\u0130STANBUL", "STRASSE", "stra\u00dfe", "\xff\xfeSMITH", "A\xc3", // invalid UTF-8
		"-- // --", "...", " ", "123 MAIN ST", "123 main st",
	}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	var sc simil.Scratch
	f.Fuzz(func(t *testing.T, a, b string) {
		want := math.Float64bits(naiveValueSim(a, b))
		if got := math.Float64bits(ValueSimInto(a, b, &sc)); got != want {
			t.Fatalf("ValueSimInto(%q, %q) = %016x, naive %016x", a, b, got, want)
		}
		if got := math.Float64bits(ValueSim(b, a)); got != want {
			t.Fatalf("ValueSim(%q, %q) = %016x, but %016x the other way round", b, a, got, want)
		}
	})
}

func TestFoldInvariant(t *testing.T) {
	for s, want := range map[string]bool{
		"": true, "SMITH 3RD, O'BRIEN-LEE": true, "Smith": false, "z": false,
		"\u212a": false, "\u0130": false, "A\xff": false, "{|}~`@[": true,
	} {
		if got := FoldInvariant(s); got != want {
			t.Errorf("FoldInvariant(%q) = %v, want %v", s, got, want)
		}
	}
}

// churnDataset is a heavy-error, heavy-re-registration register: clusters of
// several records whose values are upper-case ASCII, the shape of the
// benchmark's churn workload.
func churnDataset(tb testing.TB) *core.Dataset {
	tb.Helper()
	cfg := synth.DefaultConfig(5, 60)
	cfg.Snapshots = synth.Calendar(2008, 6)[:6]
	cfg.ReRegisterRate = 0.6
	cfg.Errors = corrupt.Heavy()
	d := core.NewDataset(core.RemoveTrimmed)
	for _, snap := range synth.Generate(cfg) {
		d.ImportSnapshot(snap)
		d.Publish()
	}
	return d
}

// TestDatasetWeightsOnce pins the single-pass weights of Update against two
// DatasetWeights calls, bit for bit.
func TestDatasetWeightsOnce(t *testing.T) {
	for name, d := range map[string]*core.Dataset{
		"churn": churnDataset(t), "variety": varietyDataset(t), "uniform": buildDataset(t),
		"empty": core.NewDataset(core.RemoveTrimmed),
	} {
		w := newWeighting(d)
		for _, c := range []struct {
			kind      string
			got, want []float64
		}{
			{"all", w.wAll, DatasetWeights(d, AllColumns())},
			{"person", w.wPerson, DatasetWeights(d, PersonColumns())},
		} {
			if len(c.got) != len(c.want) {
				t.Fatalf("%s/%s: %d weights, want %d", name, c.kind, len(c.got), len(c.want))
			}
			for i := range c.want {
				if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
					t.Errorf("%s/%s weight %d = %v, want %v", name, c.kind, i, c.got[i], c.want[i])
				}
			}
		}
	}
}

// largestCluster returns the records of the dataset's largest cluster.
func largestCluster(d *core.Dataset) []core.RecordEntry {
	var recs []core.RecordEntry
	d.Clusters(func(c *core.Cluster) bool {
		if len(c.Records) > len(recs) {
			recs = c.Records
		}
		return true
	})
	return recs
}

// TestScoreClusterAllocatesNothing: once the scratch is warm, scoring a
// cluster of upper-case ASCII values allocates nothing — no lower-cased
// copies, no per-cluster tables.
func TestScoreClusterAllocatesNothing(t *testing.T) {
	d := churnDataset(t)
	recs := largestCluster(d)
	if len(recs) < 4 {
		t.Fatalf("largest cluster has %d records; fixture too small", len(recs))
	}
	s := newClusterScorer(newWeighting(d))
	sum := 0.0
	put := func(_, _, _ int, v float64) { sum += v }
	s.ScoreCluster(recs, 1, put) // warm the scratch
	if allocs := testing.AllocsPerRun(20, func() { s.ScoreCluster(recs, 1, put) }); allocs != 0 {
		t.Errorf("ScoreCluster allocates %v times per cluster of %d records, want 0", allocs, len(recs))
	}
	if sum == 0 {
		t.Error("no scores reported")
	}
}

var benchSink float64

func BenchmarkHeteroScoreCluster(b *testing.B) {
	d := churnDataset(b)
	var clusters [][]core.RecordEntry
	pairs := 0
	d.Clusters(func(c *core.Cluster) bool {
		if len(c.Records) > 1 {
			clusters = append(clusters, c.Records)
			pairs += c.Pairs()
		}
		return true
	})
	s := newClusterScorer(newWeighting(d))
	put := func(_, _, _ int, v float64) { benchSink += v }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, recs := range clusters {
			s.ScoreCluster(recs, 1, put)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
}
