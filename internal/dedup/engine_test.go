package dedup

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/simil"
)

// equivWorkerCounts is the worker ladder of the equivalence suite.
func equivWorkerCounts() []int {
	ws := []int{1, 2, 7}
	maxprocs := runtime.GOMAXPROCS(0)
	for _, w := range ws {
		if w == maxprocs {
			return ws
		}
	}
	return append(ws, maxprocs)
}

// requireCurvesIdentical fails unless the two curves agree exactly,
// including the bit patterns of every float.
func requireCurvesIdentical(t *testing.T, label string, want, got Curve) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		if len(want.Points) != len(got.Points) {
			t.Fatalf("%s: %d points, want %d", label, len(got.Points), len(want.Points))
		}
		for i := range want.Points {
			w, g := want.Points[i], got.Points[i]
			if math.Float64bits(w.Precision) != math.Float64bits(g.Precision) ||
				math.Float64bits(w.Recall) != math.Float64bits(g.Recall) ||
				math.Float64bits(w.F1) != math.Float64bits(g.F1) ||
				math.Float64bits(w.Threshold) != math.Float64bits(g.Threshold) {
				t.Fatalf("%s: point %d diverges:\n  want %+v\n  got  %+v", label, i, w, g)
			}
		}
		t.Fatalf("%s: curves differ outside Points", label)
	}
}

// equivDatasets are the shapes the engine's id-row pair loop branches on:
// 0, 1, 3 and 4 name attributes, and a constant column (entropy weight 0)
// outside and inside the name slot, alone there too, so that the name
// weight sum is 0.
func equivDatasets(t *testing.T) map[string]*Dataset {
	t.Helper()
	base := toyDataset(t, 40, []int{1, 2, 3}, 0.4)
	constant := len(base.Attrs)
	shapes := map[string][]int{
		"names=0":        nil,
		"names=1":        {2},
		"names=3":        {0, 1, 2},
		"names=4":        {0, 1, 2, 3},
		"names=4+const":  {0, 2, 3, constant},
		"names=3,const":  {0, 1, 2},
		"names=1(const)": {constant},
	}
	out := map[string]*Dataset{}
	for name, names := range shapes {
		ds := *base
		ds.NameAttrs = names
		if strings.Contains(name, "const") {
			ds.Attrs = append(slices.Clone(base.Attrs), "state")
			ds.Records = make([][]string, len(base.Records))
			for i, rec := range base.Records {
				ds.Records[i] = append(slices.Clone(rec), "NC")
			}
			if w := simil.EntropyWeights(ds.columns())[constant]; w != 0 {
				t.Fatalf("%s: constant column weighs %v, want 0", name, w)
			}
		}
		if err := ds.Validate(); err != nil {
			t.Fatal(err)
		}
		out[name] = &ds
	}
	return out
}

// TestParallelScoreEquivalence is the engine's bit-identity contract: for
// every dataset shape, every measure and every worker count the curve from
// the slice adapter equals the sequential reference exactly. `make race`
// runs it under the race detector.
func TestParallelScoreEquivalence(t *testing.T) {
	for shape, ds := range equivDatasets(t) {
		candidates := allPairs(len(ds.Records))
		for _, m := range Measures {
			want := EvaluateCandidates(ds, m, candidates, 50)
			for _, workers := range equivWorkerCounts() {
				got := EvaluateCandidatesParallel(ds, m, candidates, 50, ScoreOpts{Workers: workers})
				requireCurvesIdentical(t, shape+"/"+string(m)+"/workers="+itoa(workers), want, got)
			}
		}
	}
}

// TestParallelScoreEquivalenceTinyMemo re-runs two measures with a memo
// cache of a handful of entries (constant skips) and with caching disabled:
// the cache policy must never leak into the scores.
func TestParallelScoreEquivalenceTinyMemo(t *testing.T) {
	ds := toyDataset(t, 25, []int{2, 3}, 0.5)
	candidates := allPairs(len(ds.Records))
	for _, m := range []Measure{MeasureMELev, MeasureTrigramJaccard} {
		want := EvaluateCandidates(ds, m, candidates, 25)
		for _, cap := range []int{64, -1} {
			got := EvaluateCandidatesParallel(ds, m, candidates, 25, ScoreOpts{Workers: 3, MemoCap: cap})
			requireCurvesIdentical(t, string(m)+"/memocap", want, got)
		}
	}
}

// TestSliceAdapterBatchBoundaries runs the slice adapter on candidate
// counts around its batch size — none, one, a batch less one, exactly one
// batch, one more, several batches and a remainder — against the plain
// reference for every measure.
func TestSliceAdapterBatchBoundaries(t *testing.T) {
	ds := toyDataset(t, 40, []int{1, 2, 3}, 0.4)
	candidates := allPairs(len(ds.Records))
	counts := []int{0, 1, sliceBatch - 1, sliceBatch, sliceBatch + 1, 3*sliceBatch + 7}
	if len(candidates) < counts[len(counts)-1] {
		t.Fatalf("only %d candidates, need %d", len(candidates), counts[len(counts)-1])
	}
	for _, m := range Measures {
		for _, n := range counts {
			want := EvaluateCandidates(ds, m, candidates[:n], 20)
			got := EvaluateCandidatesParallel(ds, m, candidates[:n], 20, ScoreOpts{Workers: 3})
			requireCurvesIdentical(t, string(m)+"/n="+itoa(n), want, got)
		}
	}
}

// TestStepsBelowOnePanicsByName: a sweep without steps is a caller bug and
// must say so, not surface as a makeslice or index panic.
func TestStepsBelowOnePanicsByName(t *testing.T) {
	ds := toyDataset(t, 5, []int{2}, 0)
	for _, steps := range []int{0, -1, -3} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "steps") {
					t.Errorf("steps=%d: recovered %q, want a message naming steps", steps, msg)
				}
			}()
			EvaluateCandidatesParallel(ds, MeasureMELev, nil, steps, ScoreOpts{Workers: 1})
		}()
	}
}

// TestParallelScoreObserverCounters checks the score_pipeline_total family:
// pairs scored, values preprocessed, and a high memo hit rate on repetitive
// data.
func TestParallelScoreObserverCounters(t *testing.T) {
	ds := toyDataset(t, 30, []int{2, 3}, 0.2)
	candidates := allPairs(len(ds.Records))
	m := obs.NewMetrics()
	EvaluateCandidatesParallel(ds, MeasureTrigramJaccard, candidates, 20,
		ScoreOpts{Workers: 2, Observer: m})
	if got := m.Counter("score_pairs_scored"); got != int64(len(candidates)) {
		t.Errorf("score_pairs_scored = %d, want %d", got, len(candidates))
	}
	if m.Counter("score_values_preprocessed") == 0 {
		t.Error("score_values_preprocessed = 0")
	}
	hits, misses := m.Counter("score_memo_hits"), m.Counter("score_memo_misses")
	if hits+misses == 0 {
		t.Fatal("no memo traffic recorded")
	}
	// Toy values come from tiny pools: the hit rate must be substantial.
	if rate := float64(hits) / float64(hits+misses); rate < 0.5 {
		t.Errorf("memo hit rate = %.2f, want >= 0.5 on repetitive data", rate)
	}
	if got := m.Counter("score_memo_skips"); got != 0 {
		t.Errorf("score_memo_skips = %d with default cap", got)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// BenchmarkEvaluateCandidatesLegacy measures the plain sequential
// reference; BenchmarkEvaluateCandidatesEngine1 the engine through the
// slice adapter at workers=1 — the single-thread speedup of
// BENCH_matching.json.
func BenchmarkEvaluateCandidatesLegacy(b *testing.B) {
	ds := benchDataset(b)
	cands := allPairs(len(ds.Records))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvaluateCandidates(ds, MeasureTrigramJaccard, cands, 50)
	}
}

func BenchmarkEvaluateCandidatesEngine1(b *testing.B) {
	ds := benchDataset(b)
	cands := allPairs(len(ds.Records))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvaluateCandidatesParallel(ds, MeasureTrigramJaccard, cands, 50, ScoreOpts{Workers: 1})
	}
}

func benchDataset(b *testing.B) *Dataset {
	b.Helper()
	return toyDataset(b, 120, []int{1, 2, 3}, 0.4)
}

// FuzzEngineKernelSymmetric holds the property the memo's canonical keys
// rest on: on the engine's own preprocessed path, every measure's kernel
// returns the same float bits for (a, b) and (b, a), and the float of the
// plain matcher's value measure. The seeds cover both sides of the ME/Lev
// fold-invariant shortcut.
func FuzzEngineKernelSymmetric(f *testing.F) {
	f.Add("SMITH", "SMYTH")             // both fold-invariant
	f.Add("123 MAIN ST", "124 MAIN ST") // fold-invariant, several tokens
	f.Add("Smith", "SMITH")             // one side folds
	f.Add("mary ann", "MARY-ANN")       // neither token list matches
	f.Add("", "JOHN")                   // empty value
	f.Add("ßstraße", "STRASSE")         // lower-case form changes length
	f.Add("\u212aELVIN", "KELVIN")      // Kelvin sign lower-cases into ASCII
	f.Add("a\x80b", "A\xffB")           // invalid UTF-8
	f.Add("O'NEIL JR", "ONEIL")         // punctuation inside tokens
	f.Fuzz(func(t *testing.T, a, b string) {
		ds := &Dataset{Name: "fuzz", Attrs: []string{"v"}, Records: [][]string{{a}, {b}}, ClusterOf: []int{0, 1}}
		sc := &simil.Scratch{}
		for _, m := range Measures {
			e := newEngine(ds, m, ScoreOpts{})
			va, vb := &e.vals[e.ids[0]], &e.vals[e.ids[1]]
			ab, ba := e.kernel(va, vb, sc), e.kernel(vb, va, sc)
			if math.Float64bits(ab) != math.Float64bits(ba) {
				t.Fatalf("%s not symmetric: (%q,%q)=%v (%q,%q)=%v", m, a, b, ab, b, a, ba)
			}
			if plain := valueMeasure(m)(a, b); math.Float64bits(ab) != math.Float64bits(plain) {
				t.Fatalf("%s(%q,%q): engine %v, plain %v", m, a, b, ab, plain)
			}
		}
	})
}
