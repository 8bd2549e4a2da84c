package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/voter"
)

// PairScorer scores two records of the same cluster in [0, 1].
type PairScorer func(a, b voter.Record) float64

// ClusterScorer is core's one scoring seam: it scores the missing record
// pairs of one cluster for one or more score kinds at once. The plausibility
// and heterogeneity packages provide the scorers; core only orchestrates
// when pairs are scored and where the results live. A scorer that shares work
// between a cluster's pairs (hetero) implements it; others use Pairwise.
type ClusterScorer interface {
	// Kinds names the kinds produced; put's kind argument indexes it.
	Kinds() []string
	// ScoreCluster reports through put, in any order and for every kind, the
	// score of every pair (i, j) with from <= i < len(recs) and j < i;
	// from >= 1. put must not be retained.
	ScoreCluster(recs []RecordEntry, from int, put func(kind, i, j int, s float64))
}

// Pairwise adapts a per-pair scorer to the cluster seam under one kind.
func Pairwise(kind string, scorer PairScorer) ClusterScorer {
	return pairwiseScorer{[]string{kind}, scorer}
}

type pairwiseScorer struct {
	kinds  []string
	scorer PairScorer
}

func (p pairwiseScorer) Kinds() []string { return p.kinds }

func (p pairwiseScorer) ScoreCluster(recs []RecordEntry, from int, put func(kind, i, j int, s float64)) {
	for i := from; i < len(recs); i++ {
		for j := 0; j < i; j++ {
			put(0, i, j, p.scorer(recs[i].Rec, recs[j].Rec))
		}
	}
}

// UpdateScores incrementally computes the version-similarity maps of the
// scorer's kinds (Fig. 2, step 2): for every record not yet scored it
// computes the similarity to all previously existing records of the same
// cluster and stores them under the record's first version. Already-scored
// pairs are never recomputed — the record order inside a cluster never
// changes (§5.2) — so scoring a subset now and the rest later yields the
// same maps as scoring everything at once.
//
// ncids restricts the update to those clusters (Delta.Dirty's rescoring
// scope): nil means every cluster, an empty non-nil slice none; unknown
// NCIDs are ignored and none may occur twice. The factory runs once per
// worker, so a scorer may own scratch buffers. workers <= 0 selects
// GOMAXPROCS, 1 scores inline on the calling goroutine. Each cluster owns its
// maps, so deterministic scorers give the same outcome at any worker count.
func (d *Dataset) UpdateScores(factory func() ClusterScorer, workers int, ncids []string) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if ncids == nil {
		ncids = d.order
	}
	var next atomic.Int64
	work := func() {
		w := newScoreWorker(factory())
		for i := next.Add(1) - 1; i < int64(len(ncids)); i = next.Add(1) - 1 {
			if c := d.clusters[ncids[i]]; c != nil {
				w.score(c)
			}
		}
	}
	if workers == 1 {
		work()
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// scoreWorker is one worker's scorer plus the rows it is currently filling:
// rows[k][i] is record i's new row under kind k, nil where already stored.
type scoreWorker struct {
	scorer ClusterScorer
	kinds  []string
	rows   [][]map[int]float64
	put    func(kind, i, j int, s float64) // bound once, not per cluster
}

func newScoreWorker(scorer ClusterScorer) *scoreWorker {
	kinds := scorer.Kinds()
	w := &scoreWorker{scorer: scorer, kinds: kinds, rows: make([][]map[int]float64, len(kinds))}
	w.put = func(kind, i, j int, s float64) {
		if row := w.rows[kind][i]; row != nil {
			row[j] = s
		}
	}
	return w
}

// score computes the missing pair scores of one cluster. The stored shape is
// part of the persisted bytes: every visited cluster — singletons included —
// gets a (possibly empty) map per kind, and every new record i >= 1 one row
// under its first version holding every j < i. Where a scorer's kinds differ
// in their first unscored record (a store loaded with one of them), it starts
// at the smallest and put drops the rows a kind already has.
func (w *scoreWorker) score(c *Cluster) {
	n := len(c.Records)
	from := n
	for k, kind := range w.kinds {
		vm := c.SimMaps[kind]
		if vm == nil {
			vm = VersionSimMap{}
			c.SimMaps[kind] = vm
		}
		through := c.scoredThrough(kind)
		if through < from {
			from = through
		}
		rows := w.rows[k][:0]
		for i := 0; i < n; i++ {
			var row map[int]float64
			if i >= through {
				byI := vm[c.Records[i].FirstVersion]
				if byI == nil {
					byI = map[int]map[int]float64{}
					vm[c.Records[i].FirstVersion] = byI
				}
				row = make(map[int]float64, i)
				byI[i] = row
			}
			rows = append(rows, row)
		}
		w.rows[k] = rows
	}
	if from < n {
		w.scorer.ScoreCluster(c.Records, from, w.put)
	}
}

// Aggregation folds a cluster's pair scores into one cluster score.
type Aggregation int

const (
	// AggMin: a cluster is only as sound as its worst pair (plausibility,
	// §6.2).
	AggMin Aggregation = iota
	// AggMean: cluster heterogeneity is the average pair heterogeneity
	// (§6.3).
	AggMean
)

// scoredThrough returns the first record index >= 1 of the cluster that has
// no stored scores for the kind yet (record 0 has no earlier record).
func (c *Cluster) scoredThrough(kind string) int {
	through := 1
	for _, byI := range c.SimMaps[kind] {
		for i := range byI {
			if i >= through {
				through = i + 1
			}
		}
	}
	return through
}

// PairScore returns the stored score of records i > j of the cluster and
// whether it exists.
func (c *Cluster) PairScore(kind string, i, j int) (float64, bool) {
	if i < j {
		i, j = j, i
	}
	vm := c.SimMaps[kind]
	if vm == nil {
		return 0, false
	}
	for _, byI := range vm {
		if row, ok := byI[i]; ok {
			if s, ok := row[j]; ok {
				return s, true
			}
		}
	}
	return 0, false
}

// ClusterScore folds the cluster's stored pair scores of a kind into one
// value. Clusters with fewer than two records (no pairs) return ok=false.
func (c *Cluster) ClusterScore(kind string, agg Aggregation) (float64, bool) {
	n := len(c.Records)
	if n < 2 {
		return 0, false
	}
	var sum float64
	count := 0
	min := 1.0
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			s, ok := c.PairScore(kind, i, j)
			if !ok {
				continue
			}
			sum += s
			count++
			if s < min {
				min = s
			}
		}
	}
	if count == 0 {
		return 0, false
	}
	if agg == AggMin {
		return min, true
	}
	return sum / float64(count), true
}

// PairScores streams every stored pair score of a kind across the dataset.
func (d *Dataset) PairScores(kind string, fn func(c *Cluster, i, j int, score float64) bool) {
	for _, id := range d.order {
		c := d.clusters[id]
		n := len(c.Records)
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				if s, ok := c.PairScore(kind, i, j); ok {
					if !fn(c, i, j, s) {
						return
					}
				}
			}
		}
	}
}

// ClusterScores returns the per-cluster aggregate of a kind for all clusters
// with at least one scored pair, in first-seen order.
func (d *Dataset) ClusterScores(kind string, agg Aggregation) []float64 {
	var out []float64
	for _, id := range d.order {
		if s, ok := d.clusters[id].ClusterScore(kind, agg); ok {
			out = append(out, s)
		}
	}
	return out
}

// Established score kinds. Plausibility stores similarities (1 = surely the
// same voter); the two heterogeneity kinds store similarities as well — the
// heterogeneity is their inverse, taken at read time — so that all three
// maps share the "similarity map" semantics of §5.2.
const (
	KindPlausibility = "plausibility"
	KindHeteroAll    = "heterogeneity_all"
	KindHeteroPerson = "heterogeneity_person"
)

// HeteroFromSim converts a stored similarity into a heterogeneity score.
func HeteroFromSim(sim float64) float64 { return 1 - sim }
