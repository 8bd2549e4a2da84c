// The parallel pair-scoring engine. Record-pair similarity over blocked
// candidates is the hot loop of the usability experiment (§6.5) — and, at
// the paper's 507 M-row framing, of any matching study. The naive matcher
// recomputes everything per pair: ToLower on both values, trigram sets,
// token lists, and a fresh DP matrix per value comparison. The engine
// removes all of that from the pair loop:
//
//   - a preprocessing pass interns every distinct column value once and
//     caches its lowercase form, token lists and sorted interned trigram
//     IDs (simil.InternGrams), so trigram Jaccard becomes a linear merge
//     over precomputed slices;
//   - the DP kernels (Damerau-Levenshtein, Monge-Elkan, Jaro-Winkler)
//     run through per-worker simil.Scratch buffers — no allocation per
//     comparison;
//   - a sharded, bounded memo cache reuses value-pair similarities, which
//     voter data repeats heavily (memo.go);
//   - candidate batches are scored by a worker pool that keeps only
//     per-threshold integer counts (stream.go), which merge commutatively:
//     every float of the Curve is identical to the sequential run for any
//     worker count and any batch shape.
//
// Bit-identity with the plain matcher holds because every kernel variant
// evaluates the same expressions in the same order (fuzz-enforced in
// internal/simil) and every measure is a pure function, so memo hits can
// only skip work, never change a result.

package dedup

import (
	"runtime"
	"strconv"
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
	// tokensRaw/tokensLower back the Monge-Elkan measure.
	tokensRaw   []string
	tokensLower []string
	// grams is the sorted unique interned trigram IDs of the lowercase form.
	grams []uint32
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
)

func kindOf(m Measure) measureKind {
	switch m {
	case MeasureMELev:
		return kindMELev
	case MeasureJaroWinkler:
		return kindJaroWinkler
	case MeasureTrigramJaccard:
		return kindJaccard
	}
	panic("dedup: unknown measure " + string(m))
}

// scoreScratch is one worker's private working state: the DP scratch and
// local counters flushed once at the end (per-pair atomics would put a
// contended cache line in the hot loop).
type scoreScratch struct {
	sc simil.Scratch

	hits, misses, skips int64
}

// engine scores record pairs of one dataset under one measure. Build once
// per (dataset, measure) via newEngine; matchers derived from it share all
// preprocessed state and differ only in their scratch.
type engine struct {
	ds      *Dataset
	kind    measureKind
	weights []float64
	names   []int
	nameSet map[int]bool
	cols    []colPrep
	memo    *memoCache
	obs     counter.Sink
	prepped int64
}

// newEngine runs the preprocessing pass: one interning table per column and
// one prep per distinct value.
func newEngine(ds *Dataset, m Measure, opts ScoreOpts) *engine {
	kind := kindOf(m)
	e := &engine{
		ds:      ds,
		kind:    kind,
		weights: simil.EntropyWeights(ds.columns()),
		names:   append([]int(nil), ds.NameAttrs...),
		nameSet: map[int]bool{},
		cols:    make([]colPrep, len(ds.Attrs)),
		memo:    newMemoCache(opts.MemoCap),
		obs:     opts.Observer,
	}
	for _, n := range ds.NameAttrs {
		e.nameSet[n] = true
	}

	for c := range ds.Attrs {
		col := colPrep{index: make(map[string]int32, len(ds.Records))}
		intern := map[string]uint32{}
		add := func(v string) {
			if _, ok := col.index[v]; ok {
				return
			}
			vp := valPrep{raw: v, lower: strings.ToLower(v), foldInvariant: hetero.FoldInvariant(v)}
			switch kind {
			case kindMELev:
				vp.tokensRaw = simil.Tokenize(vp.raw)
				vp.tokensLower = simil.Tokenize(vp.lower)
			case kindJaccard:
				vp.grams = simil.InternGrams(simil.QGrams(vp.lower, 3), intern)
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

	return e
}

// matcherFor derives a matcher whose per-column measures route through the
// engine with the given worker-private scratch. The matcher's combination
// logic (entropy weighting, best 1:1 name assignment) is reused verbatim,
// which is what makes the engine's scores provably the same floats.
func (e *engine) matcherFor(sc *scoreScratch) *matcher {
	mt := &matcher{
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
// preprocessed kernel, then memo insert. Equal values score 1 under every
// measure (each kernel returns exactly 1 for equal inputs; fuzz-checked in
// internal/simil), so they skip both the memo and the kernel.
func (e *engine) value(c int, a, b string, sc *scoreScratch) float64 {
	col := &e.cols[c]
	ua, okA := col.index[a]
	ub, okB := col.index[b]
	if !okA || !okB {
		// recordSim passes only dataset values, and name columns intern the
		// union of all name-column values: a miss is a bug, not an input.
		panic("dedup: column " + strconv.Quote(e.ds.Attrs[c]) + " has not interned " + strconv.Quote(a) + " or " + strconv.Quote(b))
	}
	if ua == ub {
		return 1
	}
	if v, ok := e.memo.get(int32(c), ua, ub); ok {
		sc.hits++
		return v
	}
	sc.misses++
	v := e.kernel(&col.vals[ua], &col.vals[ub], sc)
	if !e.memo.put(int32(c), ua, ub, v) {
		sc.skips++
	}
	return v
}

// kernel computes one value-pair similarity from preprocessed state. Each
// branch mirrors its allocating counterpart expression for expression; see
// the package comment for why that matters.
func (e *engine) kernel(va, vb *valPrep, sc *scoreScratch) float64 {
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
	case kindJaccard:
		la, lb := len(va.grams), len(vb.grams)
		if la == 0 && lb == 0 {
			return 1
		}
		inter := simil.SortedIntersectCount(va.grams, vb.grams)
		union := la + lb - inter
		if union == 0 {
			return 1
		}
		return float64(inter) / float64(union)
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
