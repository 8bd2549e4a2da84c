// The parallel pair-scoring engine. Record-pair similarity over blocked
// candidates is the hot loop of the usability experiment (§6.5) — and, at
// the paper's 507 M-row framing, of any matching study. The naive matcher
// recomputes everything per pair: ToLower on both values, trigram sets,
// token lists, and a fresh DP matrix per value comparison. The engine
// removes all of that from the pair loop:
//
//   - a preprocessing pass interns every distinct column value once and
//     caches its lowercase form, token lists and sorted interned q-gram
//     profile (simil.GramProfile), so token/set measures become linear
//     merges over precomputed slices;
//   - the DP kernels (Damerau-Levenshtein, Jaro-Winkler, the alignments)
//     run through per-worker simil.Scratch buffers — no allocation per
//     comparison;
//   - a sharded, bounded memo cache reuses value-pair similarities, which
//     voter data repeats heavily (memo.go);
//   - candidate batches are scored by a worker pool that keeps only
//     per-threshold integer counts (stream.go), which merge commutatively:
//     every float of the Curve is identical to the sequential run for any
//     worker count and any batch shape.
//
// Bit-identity with the plain Matcher holds because every kernel variant
// evaluates the same expressions in the same order (fuzz-enforced in
// internal/simil) and every measure is a pure function, so memo hits can
// only skip work, never change a result.

package dedup

import (
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/counter"
	"repro/internal/hetero"
	"repro/internal/simil"
)

// ScoreOpts tunes the parallel scoring engine.
type ScoreOpts struct {
	// Workers sizes the scoring pool; <= 0 selects GOMAXPROCS, 1 runs
	// sequentially on the calling goroutine (still preprocessed and
	// memoized).
	Workers int
	// MemoCap bounds the value-pair memo cache (total entries across
	// shards); 0 selects the default (~1M), negative disables caching.
	MemoCap int
	// Observer, when set, receives the score_* counters after the run.
	Observer counter.Sink
	// OnStage, when set, receives each pipeline stage's wall time as the
	// stage completes (preprocessing, scoring, merge) — the hook behind
	// `ncdedup -v`.
	OnStage func(stage string, elapsed time.Duration)
	// Recycle, when set, receives each fully scored batch of
	// EvaluateCandidatesStream so the producer can reuse its backing array.
	// Ignored by the slice adapter EvaluateCandidatesParallel, whose batches
	// alias the caller's slice.
	Recycle func(batch []Pair)
}

// stage reports one completed stage to the OnStage hook.
func (o ScoreOpts) stage(name string, start time.Time) {
	if o.OnStage != nil {
		o.OnStage(name, time.Since(start))
	}
}

// workersOrDefault resolves the Workers option.
func (o ScoreOpts) workersOrDefault() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// valPrep is everything the engine ever needs to know about one distinct
// column value, computed exactly once.
type valPrep struct {
	raw           string
	lower         string
	foldInvariant bool // hetero.FoldInvariant(raw)
	// tokensRaw/tokensLower back the Monge-Elkan and SoftTFIDF measures.
	tokensRaw   []string
	tokensLower []string
	// grams is the sorted interned trigram profile of the lowercase form.
	grams simil.GramProfile
}

// colPrep is one column's interning table: every distinct value of the
// column (plus, for name columns, of the sibling name columns — the best
// 1:1 name assignment compares values across columns) mapped to its prep.
type colPrep struct {
	index map[string]int32
	vals  []valPrep
}

// measureKind selects which prep fields a measure reads.
type measureKind int

const (
	kindMELev measureKind = iota
	kindJaroWinkler
	kindJaccard
	kindNW
	kindSW
	kindCosine
	kindOverlap
	kindSoftTFIDF
)

func kindOf(m Measure) measureKind {
	switch m {
	case MeasureMELev:
		return kindMELev
	case MeasureJaroWinkler:
		return kindJaroWinkler
	case MeasureTrigramJaccard:
		return kindJaccard
	case MeasureNeedlemanWunsch:
		return kindNW
	case MeasureSmithWaterman:
		return kindSW
	case MeasureCosineTrigram:
		return kindCosine
	case MeasureOverlapTrigram:
		return kindOverlap
	case MeasureSoftTFIDF:
		return kindSoftTFIDF
	}
	panic("dedup: unknown measure " + string(m))
}

// scoreScratch is one worker's private working state: the DP scratch, the
// SoftTFIDF token measure bound to it, and local counters flushed once at
// the end (per-pair atomics would put a contended cache line in the hot
// loop).
type scoreScratch struct {
	sc  simil.Scratch
	tok simil.TokenMeasure

	hits, misses, skips int64
}

// engine scores record pairs of one dataset under one measure. Build once
// per (dataset, measure) via newEngine; matchers derived from it share all
// preprocessed state and differ only in their scratch.
type engine struct {
	ds       *Dataset
	kind     measureKind
	weights  []float64
	names    []int
	nameSet  map[int]bool
	cols     []colPrep
	tfidf    []*simil.TFIDF        // per column, SoftTFIDF only
	fallback []simil.StringMeasure // defensive path for un-interned values
	memo     *memoCache
	obs      counter.Sink
	prepped  int64
}

// newEngine runs the preprocessing pass: one interning table per column,
// one prep per distinct value, and (for SoftTFIDF) the per-column corpus
// statistics.
func newEngine(ds *Dataset, m Measure, opts ScoreOpts) *engine {
	kind := kindOf(m)
	e := &engine{
		ds:      ds,
		kind:    kind,
		weights: simil.EntropyWeights(ds.Columns()),
		names:   append([]int(nil), ds.NameAttrs...),
		nameSet: map[int]bool{},
		cols:    make([]colPrep, len(ds.Attrs)),
		memo:    newMemoCache(opts.MemoCap),
		obs:     opts.Observer,
	}
	for _, n := range ds.NameAttrs {
		e.nameSet[n] = true
	}

	needTokens := kind == kindMELev || kind == kindSoftTFIDF
	needGrams := kind == kindJaccard || kind == kindCosine || kind == kindOverlap

	for c := range ds.Attrs {
		col := colPrep{index: make(map[string]int32, len(ds.Records))}
		intern := map[string]uint32{}
		add := func(v string) {
			if _, ok := col.index[v]; ok {
				return
			}
			vp := valPrep{raw: v, lower: strings.ToLower(v), foldInvariant: hetero.FoldInvariant(v)}
			if needTokens {
				if kind == kindMELev {
					vp.tokensRaw = simil.Tokenize(vp.raw)
				}
				vp.tokensLower = simil.Tokenize(vp.lower)
			}
			if needGrams {
				vp.grams = simil.NewGramProfile(simil.QGrams(vp.lower, 3), intern)
			}
			col.index[v] = int32(len(col.vals))
			col.vals = append(col.vals, vp)
		}
		for _, rec := range ds.Records {
			add(rec[c])
		}
		// Name columns are compared against each other's values by the
		// best 1:1 assignment; intern the union so those lookups hit too.
		if e.nameSet[c] {
			for _, nc := range e.names {
				if nc == c {
					continue
				}
				for _, rec := range ds.Records {
					add(rec[nc])
				}
			}
		}
		e.prepped += int64(len(col.vals))
		e.cols[c] = col
	}

	if kind == kindSoftTFIDF {
		e.tfidf = make([]*simil.TFIDF, len(ds.Attrs))
		for c := range ds.Attrs {
			docs := make([][]string, len(ds.Records))
			for i, rec := range ds.Records {
				docs[i] = e.cols[c].vals[e.cols[c].index[rec[c]]].tokensLower
			}
			e.tfidf[c] = simil.NewTFIDF(docs)
		}
	}

	e.fallback = make([]simil.StringMeasure, len(ds.Attrs))
	for c := range ds.Attrs {
		if kind == kindSoftTFIDF {
			tf := e.tfidf[c]
			e.fallback[c] = func(a, b string) float64 {
				return tf.SoftCosine(
					simil.Tokenize(strings.ToLower(a)),
					simil.Tokenize(strings.ToLower(b)),
					simil.DamerauLevenshteinSimilarity, softTFIDFThreshold)
			}
		} else {
			e.fallback[c] = valueMeasure(m)
		}
	}
	return e
}

// matcherFor derives a Matcher whose per-column measures route through the
// engine with the given worker-private scratch. The Matcher's combination
// logic (entropy weighting, best 1:1 name assignment) is reused verbatim,
// which is what makes the engine's scores provably the same floats.
func (e *engine) matcherFor(sc *scoreScratch) *Matcher {
	sc.tok = func(a, b string) float64 {
		return simil.DamerauLevenshteinSimilarityInto(a, b, &sc.sc)
	}
	mt := &Matcher{
		ds:      e.ds,
		weights: e.weights,
		names:   e.names,
		nameSet: e.nameSet,
	}
	mt.measures = make([]simil.StringMeasure, len(e.ds.Attrs))
	for c := range mt.measures {
		c := c
		mt.measures[c] = func(a, b string) float64 { return e.value(c, a, b, sc) }
	}
	return mt
}

// value scores one value pair of one column: memo lookup, then the
// preprocessed kernel, then memo insert.
func (e *engine) value(c int, a, b string, sc *scoreScratch) float64 {
	col := &e.cols[c]
	ua, okA := col.index[a]
	ub, okB := col.index[b]
	if !okA || !okB {
		// Values outside the dataset (never produced by RecordSim, but the
		// Matcher API is open) take the legacy measure directly.
		return e.fallback[c](a, b)
	}
	if ua == ub && e.kind == kindMELev {
		return 1 // hetero.ValueSimInto's equal-value shortcut
	}
	if v, ok := e.memo.get(int32(c), ua, ub); ok {
		sc.hits++
		return v
	}
	sc.misses++
	v := e.kernel(c, &col.vals[ua], &col.vals[ub], sc)
	if !e.memo.put(int32(c), ua, ub, v) {
		sc.skips++
	}
	return v
}

// kernel computes one value-pair similarity from preprocessed state. Each
// branch mirrors its allocating counterpart expression for expression; see
// the package comment for why that matters.
func (e *engine) kernel(c int, va, vb *valPrep, sc *scoreScratch) float64 {
	switch e.kind {
	case kindMELev:
		// hetero.ValueSimInto over preprocessed values: mean of raw/lower ×
		// sequential/hybrid; between fold-invariant values the lower-cased
		// half repeats the raw one bit for bit (argued there).
		dl := simil.DamerauLevenshteinSimilarityInto(va.raw, vb.raw, &sc.sc)
		me := simil.MongeElkanTokensInto(va.tokensRaw, vb.tokensRaw, &sc.sc)
		dlLower, meLower := dl, me
		if !va.foldInvariant || !vb.foldInvariant {
			dlLower = simil.DamerauLevenshteinSimilarityInto(va.lower, vb.lower, &sc.sc)
			meLower = simil.MongeElkanTokensInto(va.tokensLower, vb.tokensLower, &sc.sc)
		}
		return (dl + dlLower + me + meLower) / 4
	case kindJaroWinkler:
		return simil.JaroWinklerInto(va.lower, vb.lower, &sc.sc)
	case kindNW:
		return simil.NeedlemanWunschInto(va.lower, vb.lower, &sc.sc)
	case kindSW:
		return simil.SmithWatermanInto(va.lower, vb.lower, &sc.sc)
	case kindJaccard:
		la, lb := len(va.grams.IDs), len(vb.grams.IDs)
		if la == 0 && lb == 0 {
			return 1
		}
		inter := simil.SortedIntersectCount(va.grams.IDs, vb.grams.IDs)
		union := la + lb - inter
		if union == 0 {
			return 1
		}
		return float64(inter) / float64(union)
	case kindCosine:
		la, lb := len(va.grams.IDs), len(vb.grams.IDs)
		if la == 0 && lb == 0 {
			return 1
		}
		if la == 0 || lb == 0 {
			return 0
		}
		dot := simil.SortedDot(va.grams, vb.grams)
		return math.Min(1, float64(dot)/(sqrtInt(va.grams.NormSq)*sqrtInt(vb.grams.NormSq)))
	case kindOverlap:
		la, lb := len(va.grams.IDs), len(vb.grams.IDs)
		if la == 0 && lb == 0 {
			return 1
		}
		if la == 0 || lb == 0 {
			return 0
		}
		inter := simil.SortedIntersectCount(va.grams.IDs, vb.grams.IDs)
		return float64(inter) / float64(minInt2(la, lb))
	case kindSoftTFIDF:
		return e.tfidf[c].SoftCosine(va.tokensLower, vb.tokensLower, sc.tok, softTFIDFThreshold)
	}
	panic("dedup: unhandled measure kind")
}

// flush folds one worker's local counters into the cache totals.
func (e *engine) flush(sc *scoreScratch) {
	e.memo.hits.Add(sc.hits)
	e.memo.misses.Add(sc.misses)
	e.memo.skips.Add(sc.skips)
}

// report exports the run's counters to the observer as the
// score_pipeline_total family.
func (e *engine) report(pairs int64) {
	counter.Add(e.obs, "score_pairs_scored", pairs)
	counter.Add(e.obs, "score_values_preprocessed", e.prepped)
	counter.Add(e.obs, "score_memo_hits", e.memo.hits.Load())
	counter.Add(e.obs, "score_memo_misses", e.memo.misses.Load())
	counter.Add(e.obs, "score_memo_skips", e.memo.skips.Load())
}

// sqrtInt is math.Sqrt over an int count, so the cosine kernel normalizes
// with the same expression as CosineQGram (sqrt(na)·sqrt(nb), not
// sqrt(na·nb) — the products differ in the last ulp), clamp to 1 included.
func sqrtInt(n int) float64 { return math.Sqrt(float64(n)) }

// minInt2 returns the smaller of a and b (simil's helpers are unexported).
func minInt2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
