// Package dedup implements the duplicate-detection substrate of the
// usability experiment (§6.5): a schema-agnostic labeled dataset type,
// entropy-weighted record similarity with best 1:1 name matching, the three
// record measures of the paper (Monge-Elkan/Damerau-Levenshtein,
// Jaro-Winkler, trigram Jaccard) and threshold-sweep evaluation against
// the gold standard (precision/recall/F1). Candidate pairs come from
// internal/blocking; nothing here builds them.
package dedup

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/simil"
)

// Dataset is a labeled test dataset: aligned attribute values per record
// plus the gold standard as a cluster id per record (records in the same
// cluster are duplicates).
type Dataset struct {
	Name      string
	Attrs     []string
	Records   [][]string
	ClusterOf []int // gold-standard cluster id per record
	// NameAttrs lists attribute indices whose values are often confused
	// with each other (the register's three names); the matcher tries every
	// 1:1 assignment between them and keeps the best.
	NameAttrs []int
}

// maxNameAttrs caps NameAttrs: the best 1:1 name assignment walks all n!
// assignments per pair, so one pair costs microseconds at 3 name attributes,
// milliseconds at 6 and seconds at 10. Every producer writes at most 3 (the
// register's first, middle and last name); the engine sizes its per-pair
// name matrix by this cap.
const maxNameAttrs = 4

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if len(d.Records) != len(d.ClusterOf) {
		return fmt.Errorf("dedup: %s: %d records vs %d labels", d.Name, len(d.Records), len(d.ClusterOf))
	}
	for i, r := range d.Records {
		if len(r) != len(d.Attrs) {
			return fmt.Errorf("dedup: %s: record %d has %d values, want %d", d.Name, i, len(r), len(d.Attrs))
		}
	}
	if len(d.NameAttrs) > maxNameAttrs {
		return fmt.Errorf("dedup: %s: %d name attributes, at most %d", d.Name, len(d.NameAttrs), maxNameAttrs)
	}
	for i, n := range d.NameAttrs {
		if n < 0 || n >= len(d.Attrs) {
			return fmt.Errorf("dedup: %s: name attribute %d out of range", d.Name, n)
		}
		if slices.Contains(d.NameAttrs[:i], n) {
			return fmt.Errorf("dedup: %s: name attribute %d repeated", d.Name, n)
		}
	}
	return nil
}

// NumRecords returns the record count.
func (d *Dataset) NumRecords() int { return len(d.Records) }

// Clusters groups record indices by gold-standard cluster id.
func (d *Dataset) Clusters() map[int][]int {
	m := map[int][]int{}
	for i, c := range d.ClusterOf {
		m[c] = append(m[c], i)
	}
	return m
}

// NumClusters returns the number of gold-standard clusters.
func (d *Dataset) NumClusters() int { return len(d.Clusters()) }

// NumTruePairs returns the number of duplicate pairs in the gold standard.
func (d *Dataset) NumTruePairs() int {
	n := 0
	for _, idx := range d.Clusters() {
		n += len(idx) * (len(idx) - 1) / 2
	}
	return n
}

// NonSingletonClusters returns how many clusters have at least two records.
func (d *Dataset) NonSingletonClusters() int {
	n := 0
	for _, idx := range d.Clusters() {
		if len(idx) > 1 {
			n++
		}
	}
	return n
}

// MaxClusterSize returns the largest cluster's record count.
func (d *Dataset) MaxClusterSize() int {
	m := 0
	for _, idx := range d.Clusters() {
		if len(idx) > m {
			m = len(idx)
		}
	}
	return m
}

// AvgClusterSize returns the mean records per cluster (0 when empty).
func (d *Dataset) AvgClusterSize() float64 {
	c := d.NumClusters()
	if c == 0 {
		return 0
	}
	return float64(len(d.Records)) / float64(c)
}

// IsDuplicate reports whether records i and j are gold-standard duplicates.
func (d *Dataset) IsDuplicate(i, j int) bool {
	return d.ClusterOf[i] == d.ClusterOf[j]
}

// Trimmed returns a copy with every value whitespace-trimmed.
func (d *Dataset) Trimmed() *Dataset {
	out := &Dataset{
		Name:      d.Name,
		Attrs:     d.Attrs,
		ClusterOf: d.ClusterOf,
		NameAttrs: d.NameAttrs,
	}
	out.Records = make([][]string, len(d.Records))
	for i, r := range d.Records {
		nr := make([]string, len(r))
		for j, v := range r {
			nr[j] = strings.TrimSpace(v)
		}
		out.Records[i] = nr
	}
	return out
}

// columns returns the dataset transposed: one slice per attribute.
func (d *Dataset) columns() [][]string {
	cols := make([][]string, len(d.Attrs))
	for c := range cols {
		col := make([]string, len(d.Records))
		for r := range d.Records {
			col[r] = d.Records[r][c]
		}
		cols[c] = col
	}
	return cols
}

// MostUniqueAttrs returns the indices of the k attributes with the highest
// entropy — the paper's choice of SNM sorting keys (§6.5 sorts on the five
// most unique attributes, reusing the §6.3 entropy weights).
func MostUniqueAttrs(ds *Dataset, k int) []int {
	cols := ds.columns()
	type ae struct {
		idx int
		h   float64
	}
	es := make([]ae, len(cols))
	for i, col := range cols {
		es[i] = ae{i, simil.Entropy(col)}
	}
	sort.SliceStable(es, func(x, y int) bool { return es[x].h > es[y].h })
	if k > len(es) {
		k = len(es)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = es[i].idx
	}
	return out
}
