// Package hetero implements the paper's heterogeneity scoring (§6.3): a
// dirtiness measure for duplicate pairs that — unlike plausibility — counts
// every difference, while weighting insignificant differences (case,
// token confusions) lower than real replacements. Every two values are
// compared four times (with and without lowercasing × sequential
// Damerau-Levenshtein and hybrid Monge-Elkan) and averaged; attributes are
// weighted by their entropy computed from one record per cluster so that no
// external domain knowledge biases cross-dataset comparisons.
package hetero

import (
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/simil"
	"repro/internal/voter"
)

// ValueSim returns the similarity of two attribute values: the mean of the
// four comparisons described above. Two empty values are identical (1).
func ValueSim(a, b string) float64 {
	var sc simil.Scratch
	return ValueSimInto(a, b, &sc)
}

// ValueSimInto is ValueSim through caller-owned scratch buffers, and the
// package's one four-way kernel: DL(a,b) + DL(lower a, lower b) + ME(a,b) +
// ME(lower a, lower b), added left to right, over 4. Three shortcuts leave
// every bit of that unchanged:
//   - a == b scores exactly 1: the Damerau-Levenshtein similarity of equal
//     values is 1 - 0/m (1 if both are empty); in Monge-Elkan every token
//     finds itself, so both directed means are n·1/n (1 without tokens);
//     (1+1+1+1)/4 = 1; and lower-casing equal values keeps them equal.
//   - between two FoldInvariant values the lower-cased half repeats the raw
//     half, so each kernel runs once and is added twice, in the same order.
//   - between two values that are each one token (simil.OneToken),
//     Monge-Elkan is the Damerau-Levenshtein similarity, so it is not run.
//
// The result is also symmetric bit for bit — edit distances are symmetric
// integers and the two directed Monge-Elkan means are added commutatively —
// so the cluster scorer keeps one table entry per unordered value pair.
// FuzzValueSimShortcuts pins all four against the plain four-way form.
func ValueSimInto(a, b string, sc *simil.Scratch) float64 {
	if a == b {
		return 1
	}
	dl := simil.DamerauLevenshteinSimilarityInto(a, b, sc)
	me := dl
	if !simil.OneToken(a) || !simil.OneToken(b) {
		me = simil.MongeElkanDLInto(a, b, sc)
	}
	dlLower, meLower := dl, me
	if !FoldInvariant(a) || !FoldInvariant(b) {
		la, lb := strings.ToLower(a), strings.ToLower(b)
		dlLower = simil.DamerauLevenshteinSimilarityInto(la, lb, sc)
		meLower = dlLower
		if !simil.OneToken(la) || !simil.OneToken(lb) {
			meLower = simil.MongeElkanDLInto(la, lb, sc)
		}
	}
	return (dl + dlLower + me + meLower) / 4
}

// FoldInvariant reports whether s is ASCII without the letters a-z. On such
// bytes strings.ToLower is injective (A-Z move onto the unused a-z), so
// between two such values it preserves all the kernels look at: which runes
// are equal, the lengths and — letters staying letters — the token
// boundaries. Anything else (a lower-case letter, the Kelvin sign that
// lower-cases into ASCII, U+0130 whose lower-case form is longer, invalid
// UTF-8) takes the full four-way path.
func FoldInvariant(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 0x80 || 'a' <= c && c <= 'z' {
			return false
		}
	}
	return true
}

// PairSim returns the weighted mean value similarity of two aligned value
// slices. len(a), len(b) and len(weights) must agree.
func PairSim(a, b []string, weights []float64) float64 {
	if len(a) != len(b) || len(a) != len(weights) {
		panic("hetero: PairSim length mismatch")
	}
	scores := make([]float64, len(a))
	for i := range a {
		scores[i] = ValueSim(a[i], b[i])
	}
	return simil.WeightedAverage(scores, weights)
}

// Heterogeneity is the inverse pair similarity: records are the more
// heterogeneous the less similar they are.
func Heterogeneity(a, b []string, weights []float64) float64 {
	return 1 - PairSim(a, b, weights)
}

// EntropyWeightsFromRows derives normalized attribute weights from rows of
// aligned values: each column's Shannon entropy divided by the total.
func EntropyWeightsFromRows(rows [][]string) []float64 {
	if len(rows) == 0 {
		return nil
	}
	cols := make([][]string, len(rows[0]))
	for c := range cols {
		col := make([]string, len(rows))
		for r := range rows {
			col[r] = rows[r][c]
		}
		cols[c] = col
	}
	return simil.EntropyWeights(cols)
}

// Scorer scores record pairs one at a time over a fixed column subset with
// fixed weights (typically DatasetWeights) — the per-pair reference the fused
// scorer behind Update is held against. Like core's version-similarity maps
// it yields similarities; the heterogeneity is 1 minus the score.
type Scorer struct {
	cols    []int
	weights []float64
}

// NewScorer returns a scorer over the given schema columns and weights.
func NewScorer(cols []int, weights []float64) *Scorer {
	if len(cols) != len(weights) {
		panic("hetero: NewScorer length mismatch")
	}
	return &Scorer{cols: cols, weights: weights}
}

// PairSim scores one record pair over the trimmed column values: leading and
// trailing whitespace is a distribution artifact, not dirtiness.
func (s *Scorer) PairSim(a, b voter.Record) float64 {
	va, vb := make([]string, len(s.cols)), make([]string, len(s.cols))
	for i, c := range s.cols {
		va[i], vb[i] = strings.TrimSpace(a.Values[c]), strings.TrimSpace(b.Values[c])
	}
	return PairSim(va, vb, s.weights)
}

// clusterScorer is the fused scorer behind Update: one pass over a cluster
// yields heterogeneity_all and heterogeneity_person together. Per column it
// interns the cluster's distinct trimmed values and fills a value-pair table
// lazily, so a distinct value pair runs the four-way kernel at most once per
// cluster however many record pairs carry it, and equal values never reach
// it. Each pair's per-column scores then feed simil.WeightedAverage — over
// all columns, and over the person columns' entries of the same scores —
// exactly as Scorer.PairSim accumulates them, so both kinds match it bit for
// bit. Buffers are reused across clusters; one scorer serves one goroutine.
type clusterScorer struct {
	*weighting
	sc          simil.Scratch
	ids         []int32    // ids[c*n+r]: value id of record r in column c
	tabs        []colTable // per column
	all, person []float64  // one pair's per-column scores
}

// colTable holds one column's distinct values in a cluster and their k×k
// similarities (unset < 0; only cells with row < column are used).
type colTable struct {
	vals []string
	sims []float64
}

// weighting is what the workers of one update share, read-only: the scored
// columns, where in them each of PersonColumns sits, and both weight vectors.
type weighting struct {
	cols, personAt []int
	wAll, wPerson  []float64
}

// newWeighting derives DatasetWeights of AllColumns and of PersonColumns from
// one pass over the representatives: a column's entropy does not depend on the
// other columns weighted, so the person weights are the person columns'
// entries of the same entropies, normalized among themselves.
func newWeighting(d *core.Dataset) *weighting {
	w := &weighting{cols: AllColumns()} // ascending
	ent := columnEntropies(d, w.cols)
	var personEnt []float64
	for _, c := range PersonColumns() {
		i := sort.SearchInts(w.cols, c)
		if i == len(w.cols) || w.cols[i] != c {
			panic("hetero: person column outside AllColumns")
		}
		w.personAt = append(w.personAt, i)
		if ent != nil {
			personEnt = append(personEnt, ent[i])
		}
	}
	w.wAll, w.wPerson = simil.NormalizeWeights(ent), simil.NormalizeWeights(personEnt)
	return w
}

func newClusterScorer(w *weighting) *clusterScorer {
	return &clusterScorer{weighting: w, tabs: make([]colTable, len(w.cols)),
		all: make([]float64, len(w.cols)), person: make([]float64, len(w.personAt))}
}

var kinds = []string{core.KindHeteroAll, core.KindHeteroPerson}

func (s *clusterScorer) Kinds() []string { return kinds }

func (s *clusterScorer) ScoreCluster(recs []core.RecordEntry, from int, put func(kind, i, j int, v float64)) {
	n := len(recs)
	s.intern(recs)
	for i := from; i < n; i++ {
		for j := 0; j < i; j++ {
			for c := range s.cols {
				s.all[c] = s.valueSim(&s.tabs[c], s.ids[c*n+i], s.ids[c*n+j])
			}
			for p, c := range s.personAt {
				s.person[p] = s.all[c]
			}
			put(0, i, j, simil.WeightedAverage(s.all, s.wAll))
			put(1, i, j, simil.WeightedAverage(s.person, s.wPerson))
		}
	}
}

// intern gives every record's trimmed value a per-column id (linear scan:
// clusters are small) and resets the columns' similarity tables.
func (s *clusterScorer) intern(recs []core.RecordEntry) {
	s.ids = s.ids[:0]
	for c, col := range s.cols {
		t := &s.tabs[c]
		t.vals, t.sims = t.vals[:0], t.sims[:0]
		for r := range recs {
			v := strings.TrimSpace(recs[r].Rec.Values[col])
			id := 0
			for id < len(t.vals) && t.vals[id] != v {
				id++
			}
			if id == len(t.vals) {
				t.vals = append(t.vals, v)
			}
			s.ids = append(s.ids, int32(id))
		}
		for i := len(t.vals) * len(t.vals); i > 0; i-- {
			t.sims = append(t.sims, -1)
		}
	}
}

// valueSim returns the similarity of two interned values of a column,
// running the kernel on the first use of an unordered pair.
func (s *clusterScorer) valueSim(t *colTable, a, b int32) float64 {
	if a == b {
		return 1
	}
	if a > b {
		a, b = b, a
	}
	cell := &t.sims[int(a)*len(t.vals)+int(b)]
	if *cell < 0 {
		*cell = ValueSimInto(t.vals[a], t.vals[b], &s.sc)
	}
	return *cell
}

// columnEntropies returns the Shannon entropy of each given schema column
// over one record per cluster of the dataset (nil for an empty dataset) —
// duplicates would distort the uniqueness estimate (an otherwise unique id
// occurs multiple times), so only cluster representatives contribute (§6.3).
func columnEntropies(d *core.Dataset, cols []int) []float64 {
	if d.NumClusters() == 0 {
		return nil
	}
	reps := make([][]string, 0, d.NumClusters())
	d.Clusters(func(c *core.Cluster) bool {
		reps = append(reps, c.Records[0].Rec.Values)
		return true
	})
	column := make([]string, len(reps))
	ent := make([]float64, len(cols))
	for i, ci := range cols {
		for r, vals := range reps {
			column[r] = strings.TrimSpace(vals[ci])
		}
		ent[i] = simil.Entropy(column)
	}
	return ent
}

// DatasetWeights computes the entropy weights of the given schema columns
// from the dataset's cluster representatives.
func DatasetWeights(d *core.Dataset, cols []int) []float64 {
	return simil.NormalizeWeights(columnEntropies(d, cols))
}

// AllColumns returns the schema columns scored by the all-attribute
// heterogeneity (everything except the gold-standard NCID, which must never
// influence a dirtiness measure).
func AllColumns() []int {
	var cols []int
	for i := range voter.Attributes {
		if i == voter.IdxNCID {
			continue
		}
		cols = append(cols, i)
	}
	return cols
}

// PersonColumns returns the person-group columns (the paper's second
// heterogeneity map, used by the NC1-NC3 customization).
func PersonColumns() []int {
	return voter.GroupIndices(voter.GroupPerson)
}

// Update computes (incrementally) both heterogeneity version-similarity maps
// of the dataset, deriving fresh entropy weights from the current cluster
// representatives.
func Update(d *core.Dataset) { update(d, 1, nil) }

// UpdateParallel is Update over a worker pool (workers <= 0 selects
// GOMAXPROCS); the result is identical. Each worker gets its own fused
// scorer, so the hot path performs no per-pair allocations.
func UpdateParallel(d *core.Dataset, workers int) { update(d, workers, nil) }

// UpdateDelta scores only the clusters a delta apply marked dirty
// (dl.Dirty()). The entropy weights come from the grown dataset's cluster
// representatives — exactly those a full UpdateParallel would use now — and
// already-scored pairs are never revisited, so delta-scoring after each apply
// matches full scoring bit for bit as long as scores were current before it.
func UpdateDelta(d *core.Dataset, dl *core.Delta, workers int) { update(d, workers, dl.Dirty()) }

func update(d *core.Dataset, workers int, ncids []string) {
	w := newWeighting(d)
	d.UpdateScores(func() core.ClusterScorer { return newClusterScorer(w) }, workers, ncids)
}

// ClusterHeterogeneity returns the per-cluster heterogeneity (1 - mean pair
// similarity) of the given kind for clusters with at least two records.
func ClusterHeterogeneity(d *core.Dataset, kind string) []float64 {
	sims := d.ClusterScores(kind, core.AggMean)
	out := make([]float64, len(sims))
	for i, s := range sims {
		out[i] = core.HeteroFromSim(s)
	}
	return out
}

// PairHeterogeneities streams every stored pair heterogeneity of a kind.
func PairHeterogeneities(d *core.Dataset, kind string) []float64 {
	var out []float64
	d.PairScores(kind, func(_ *core.Cluster, _, _ int, sim float64) bool {
		out = append(out, core.HeteroFromSim(sim))
		return true
	})
	return out
}
