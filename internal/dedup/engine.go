// The parallel pair-scoring engine. Record-pair similarity over blocked
// candidates is the hot loop of the usability experiment (§6.5) — and, at
// the paper's 507 M-row framing, of any matching study. The naive matcher
// recomputes everything per pair: ToLower on both values, trigram sets,
// token lists, and a fresh DP matrix per value comparison. The engine
// removes all of that from the pair loop, which touches only integers
// until a kernel has to run:
//
//   - a preprocessing pass interns every distinct value of the dataset
//     once, in one table for all columns, caching its lowercase form,
//     token lists and sorted interned trigram IDs (simil.InternGrams), and
//     writes one row of value ids per record;
//   - the DP kernels (Damerau-Levenshtein, Monge-Elkan, Jaro-Winkler)
//     run through per-worker simil.Scratch buffers — no allocation per
//     comparison;
//   - a per-worker bounded memo, keyed by the unordered pair of value ids,
//     reuses value-pair similarities, which voter data repeats heavily
//     (memo.go);
//   - candidate batches are scored by a worker pool that keeps only
//     per-threshold integer counts (stream.go), which merge commutatively:
//     every float of the Curve is identical to the sequential run for any
//     worker count and any batch shape.
//
// Bit-identity with the plain matcher holds because every kernel variant
// evaluates the same expressions in the same order (fuzz-enforced in
// internal/simil), every kernel is bit-symmetric (FuzzEngineKernelSymmetric)
// and every measure is a pure function, so memo hits can only skip work,
// never change a result; the record score adds the matcher's terms in the
// matcher's order.

package dedup

import (
	"cmp"
	"runtime"
	"slices"
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
	// MemoCap bounds the value-pair memos (total entries, split across the
	// workers); 0 selects the default (~1M), negative disables caching.
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
// value of the dataset, computed exactly once.
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

// engine scores record pairs of one dataset under one measure. Build once
// per (dataset, measure) via newEngine; the scorers derived from it share
// all preprocessed state and differ only in their scratch and memo.
type engine struct {
	ds   *Dataset
	kind measureKind
	// vals holds one prep per distinct value of the dataset, for all
	// columns at once: a kernel depends only on the two values, never on
	// the column. ids[i*ncols+c] indexes record i's value in column c.
	vals  []valPrep
	ids   []int32
	ncols int

	weights []float64
	// plain lists the non-name columns whose weight is not 0, ascending —
	// the columns matcher.recordSim adds one by one.
	plain []int
	names []int
	// nameW is the name weights' sum in NameAttrs order: the weight of the
	// name slot in recordSim and the divisor of every assignment's score.
	nameW float64
	perms [][]int // the assignments bestNameAssignment tries

	memoCap int // MemoCap resolved: total entries, negative disables
	obs     counter.Sink

	hits, misses, skips int64 // summed over the workers' memos
}

// newEngine runs the preprocessing pass: one interning table for the whole
// dataset and one id row per record.
func newEngine(ds *Dataset, m Measure, opts ScoreOpts) *engine {
	kind := kindOf(m)
	e := &engine{
		ds:      ds,
		kind:    kind,
		ncols:   len(ds.Attrs),
		ids:     make([]int32, len(ds.Records)*len(ds.Attrs)),
		weights: simil.EntropyWeights(ds.columns()),
		names:   append([]int(nil), ds.NameAttrs...),
		memoCap: cmp.Or(opts.MemoCap, defaultMemoCap),
		obs:     opts.Observer,
	}
	for c := range ds.Attrs {
		if !slices.Contains(e.names, c) && e.weights[c] != 0 {
			e.plain = append(e.plain, c)
		}
	}
	for _, c := range e.names {
		e.nameW += e.weights[c]
	}
	e.perms = permutations(len(e.names))

	index := make(map[string]int32, len(ds.Records))
	grams := map[string]uint32{}
	for i, rec := range ds.Records {
		for c := range ds.Attrs {
			v := rec[c]
			id, ok := index[v]
			if !ok {
				id = int32(len(e.vals))
				index[v] = id
				e.vals = append(e.vals, prepValue(v, kind, grams))
			}
			e.ids[i*e.ncols+c] = id
		}
	}
	return e
}

// prepValue computes the prep of one distinct value; grams interns the
// trigrams of every value of the dataset.
func prepValue(v string, kind measureKind, grams map[string]uint32) valPrep {
	vp := valPrep{raw: v, lower: strings.ToLower(v), foldInvariant: hetero.FoldInvariant(v)}
	switch kind {
	case kindMELev:
		vp.tokensRaw = simil.Tokenize(vp.raw)
		vp.tokensLower = simil.Tokenize(vp.lower)
	case kindJaccard:
		vp.grams = simil.InternGrams(simil.QGrams(vp.lower, 3), grams)
	}
	return vp
}

// permutations lists every permutation of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			out = append(out, slices.Insert(slices.Clone(p), i, n-1))
		}
	}
	return out
}

// scorer is one worker's private state: the DP scratch and a memo whose
// counters fold into the engine's totals once at the end (per-pair atomics
// would put a contended cache line in the hot loop).
type scorer struct {
	e    *engine
	sc   simil.Scratch
	memo memo
}

// recordSim is matcher.recordSim over two id rows: the same sums of the
// same terms in the same order, so the same float.
func (s *scorer) recordSim(i, j int) float64 {
	e := s.e
	a := e.ids[i*e.ncols : (i+1)*e.ncols]
	b := e.ids[j*e.ncols : (j+1)*e.ncols]
	sum, wsum := 0.0, 0.0
	for _, c := range e.plain {
		w := e.weights[c]
		sum += float64(w * s.value(a[c], b[c]))
		wsum += w
	}
	if e.nameW > 0 {
		sum += float64(e.nameW * s.bestNameAssignment(a, b))
		wsum += e.nameW
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// bestNameAssignment is matcher.bestNameAssignment with each name value
// pair scored once: it fills the n×n similarity matrix, then walks the
// permutations over it. The maximum does not depend on the order the
// permutations are tried in, and each score adds its terms in slot order.
func (s *scorer) bestNameAssignment(a, b []int32) float64 {
	e := s.e
	var sim [maxNameAttrs][maxNameAttrs]float64
	for i, ci := range e.names {
		for j, cj := range e.names {
			sim[i][j] = s.value(a[ci], b[cj])
		}
	}
	best := 0.0
	for _, perm := range e.perms {
		score := 0.0
		for i, p := range perm {
			score += float64(e.weights[e.names[i]] * sim[i][p])
		}
		score /= e.nameW
		if score > best {
			best = score
		}
	}
	return best
}

// value scores one value pair: memo lookup, then the preprocessed kernel,
// then memo insert. Equal values score 1 under every measure (each kernel
// returns exactly 1 for equal inputs; fuzz-checked in internal/simil), so
// they skip both the memo and the kernel.
func (s *scorer) value(a, b int32) float64 {
	if a == b {
		return 1
	}
	k := memoKey(a, b)
	if v, ok := s.memo.m[k]; ok {
		s.memo.hits++
		return v
	}
	s.memo.misses++
	v := s.e.kernel(&s.e.vals[a], &s.e.vals[b], &s.sc)
	s.memo.put(k, v)
	return v
}

// kernel computes one value-pair similarity from preprocessed state. Each
// branch mirrors its allocating counterpart expression for expression; see
// the package comment for why that matters.
func (e *engine) kernel(va, vb *valPrep, sc *simil.Scratch) float64 {
	switch e.kind {
	case kindMELev:
		// hetero.ValueSimInto over preprocessed values: mean of raw/lower ×
		// sequential/hybrid; between fold-invariant values the lower-cased
		// half repeats the raw one bit for bit (argued there).
		dl := simil.DamerauLevenshteinSimilarityInto(va.raw, vb.raw, sc)
		me := simil.MongeElkanTokensInto(va.tokensRaw, vb.tokensRaw, sc)
		dlLower, meLower := dl, me
		if !va.foldInvariant || !vb.foldInvariant {
			dlLower = simil.DamerauLevenshteinSimilarityInto(va.lower, vb.lower, sc)
			meLower = simil.MongeElkanTokensInto(va.tokensLower, vb.tokensLower, sc)
		}
		return (dl + dlLower + me + meLower) / 4
	case kindJaroWinkler:
		return simil.JaroWinklerInto(va.lower, vb.lower, sc)
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

// report exports the run's counters to the observer as the
// score_pipeline_total family.
func (e *engine) report(pairs int64) {
	counter.Add(e.obs, "score_pairs_scored", pairs)
	counter.Add(e.obs, "score_values_preprocessed", int64(len(e.vals)))
	counter.Add(e.obs, "score_memo_hits", e.hits)
	counter.Add(e.obs, "score_memo_misses", e.misses)
	counter.Add(e.obs, "score_memo_skips", e.skips)
}
