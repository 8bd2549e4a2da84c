// Package custom implements the paper's customization experiment (§6.5):
// deriving test datasets of a chosen dirtiness from the big historical
// dataset. The three-step recipe — (1) fix a heterogeneity range
// [h⊥, h⊤], (2) sample clusters and drop every record whose heterogeneity
// to its preceding kept records leaves the range, (3) keep the largest k
// reduced clusters — produced the paper's NC1 (clean), NC2 (medium) and
// NC3 (dirty) datasets.
package custom

import (
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/dedup"
	"repro/internal/hetero"
	"repro/internal/voter"
)

// Config parameterizes one customization run.
type Config struct {
	Name           string  // output dataset name (e.g. "NC1")
	HLow, HHigh    float64 // requested heterogeneity range [h⊥, h⊤]
	SampleClusters int     // step 2: how many clusters to sample
	SelectTop      int     // step 3: how many largest reduced clusters to keep
	Seed           int64
}

// NC1Config etc. mirror the paper's three settings (h⊥, h⊤) ∈
// {(0.06, 0.2), (0.2, 0.4), (0.4, 1.0)}; sample and selection sizes scale
// with the caller's data volume.
func NC1Config(seed int64, sample, top int) Config {
	return Config{Name: "NC1", HLow: 0.06, HHigh: 0.2, SampleClusters: sample, SelectTop: top, Seed: seed}
}

// NC2Config is the medium-heterogeneity setting.
func NC2Config(seed int64, sample, top int) Config {
	return Config{Name: "NC2", HLow: 0.2, HHigh: 0.4, SampleClusters: sample, SelectTop: top, Seed: seed}
}

// NC3Config is the dirty setting.
func NC3Config(seed int64, sample, top int) Config {
	return Config{Name: "NC3", HLow: 0.4, HHigh: 1.0, SampleClusters: sample, SelectTop: top, Seed: seed}
}

// Build runs the three customization steps against the dataset and returns
// the result restricted to the person attributes. Stored
// heterogeneity-person scores are used where present; missing pairs are
// scored on the fly with entropy weights from the input's cluster
// representatives.
func Build(d *core.Dataset, cfg Config) *dedup.Dataset {
	cols := hetero.PersonColumns()
	scorer := hetero.NewScorer(cols, hetero.DatasetWeights(d, cols))

	// Step 2a: sample clusters.
	ids := d.NCIDs()
	rng := rand.New(rand.NewSource(corrupt.SubSeed(cfg.Seed, 30)))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if cfg.SampleClusters > 0 && cfg.SampleClusters < len(ids) {
		ids = ids[:cfg.SampleClusters]
	}

	// Step 2b: reduce each cluster to records inside the range.
	var reducedClusters []reducedCluster
	for _, id := range ids {
		c := d.Cluster(id)
		var kept []voter.Record
		var keptIdx []int
		for i, e := range c.Records {
			ok := true
			for ki, kr := range kept {
				h, stored := c.PairScore(core.KindHeteroPerson, i, keptIdx[ki])
				var hv float64
				if stored {
					hv = core.HeteroFromSim(h)
				} else {
					hv = 1 - scorer.PairSim(e.Rec, kr)
				}
				if hv < cfg.HLow || hv > cfg.HHigh {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, e.Rec)
				keptIdx = append(keptIdx, i)
			}
		}
		reducedClusters = append(reducedClusters, reducedCluster{c.NCID, kept})
	}

	// Step 3: keep the largest clusters (stable on NCID for determinism).
	sort.SliceStable(reducedClusters, func(a, b int) bool {
		if len(reducedClusters[a].recs) != len(reducedClusters[b].recs) {
			return len(reducedClusters[a].recs) > len(reducedClusters[b].recs)
		}
		return reducedClusters[a].ncid < reducedClusters[b].ncid
	})
	if cfg.SelectTop > 0 && cfg.SelectTop < len(reducedClusters) {
		reducedClusters = reducedClusters[:cfg.SelectTop]
	}

	return toDedupDataset(cfg.Name, cols, reducedClusters)
}

// reducedCluster is a cluster after the step-2 record reduction.
type reducedCluster struct {
	ncid string
	recs []voter.Record
}

// toDedupDataset renders the reduced clusters as a trimmed person-attribute
// dataset for the detection pipelines.
func toDedupDataset(name string, cols []int, clusters []reducedCluster) *dedup.Dataset {
	attrs := voter.Names(cols)
	ds := &dedup.Dataset{Name: name, Attrs: attrs}
	for i, a := range attrs {
		switch a {
		case "first_name", "midl_name", "last_name":
			ds.NameAttrs = append(ds.NameAttrs, i)
		}
	}
	for ci, cl := range clusters {
		for _, r := range cl.recs {
			vals := make([]string, len(cols))
			for vi, c := range cols {
				vals[vi] = strings.TrimSpace(r.Values[c])
			}
			ds.Records = append(ds.Records, vals)
			ds.ClusterOf = append(ds.ClusterOf, ci)
		}
	}
	return ds
}

// Characteristics is one row of the paper's Table 3.
type Characteristics struct {
	Name          string
	Records       int
	Attributes    int
	DupPairs      int
	Clusters      int
	NonSingletons int
	MaxCluster    int
	AvgCluster    float64
	MaxHetero     float64
	AvgHetero     float64
}

// Describe computes a dataset's Table 3 row: structural counts plus the
// pair-based heterogeneity extrema under the standard scoring (entropy
// weights from one record per cluster).
func Describe(ds *dedup.Dataset) Characteristics {
	ch := Characteristics{
		Name:          ds.Name,
		Records:       ds.NumRecords(),
		Attributes:    len(ds.Attrs),
		DupPairs:      ds.NumTruePairs(),
		Clusters:      ds.NumClusters(),
		NonSingletons: ds.NonSingletonClusters(),
		MaxCluster:    ds.MaxClusterSize(),
		AvgCluster:    ds.AvgClusterSize(),
	}
	// Weights from cluster representatives only.
	var reps [][]string
	for _, idx := range clustersInOrder(ds) {
		reps = append(reps, ds.Records[idx[0]])
	}
	weights := hetero.EntropyWeightsFromRows(reps)
	sum, n := 0.0, 0
	for _, idx := range clustersInOrder(ds) {
		for x := 0; x < len(idx); x++ {
			for y := x + 1; y < len(idx); y++ {
				h := hetero.Heterogeneity(ds.Records[idx[x]], ds.Records[idx[y]], weights)
				sum += h
				n++
				if h > ch.MaxHetero {
					ch.MaxHetero = h
				}
			}
		}
	}
	if n > 0 {
		ch.AvgHetero = sum / float64(n)
	}
	return ch
}

// PairHeterogeneities returns every duplicate pair's heterogeneity under
// the standard scoring — the raw series behind Figure 4c.
func PairHeterogeneities(ds *dedup.Dataset) []float64 {
	var reps [][]string
	for _, idx := range clustersInOrder(ds) {
		reps = append(reps, ds.Records[idx[0]])
	}
	weights := hetero.EntropyWeightsFromRows(reps)
	var out []float64
	for _, idx := range clustersInOrder(ds) {
		for x := 0; x < len(idx); x++ {
			for y := x + 1; y < len(idx); y++ {
				out = append(out, hetero.Heterogeneity(ds.Records[idx[x]], ds.Records[idx[y]], weights))
			}
		}
	}
	return out
}

// clustersInOrder returns the cluster index lists sorted by cluster id so
// iteration order is deterministic.
func clustersInOrder(ds *dedup.Dataset) [][]int {
	m := ds.Clusters()
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([][]int, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}
