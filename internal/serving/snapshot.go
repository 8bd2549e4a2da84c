package serving

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Snapshot is one immutable, read-optimized view of a dataset: the dataset
// itself plus everything derived from it in one pass over its clusters —
// the fully rendered payloads of every dataset-level endpoint, the per-NCID
// record views, one summary row per cluster, and three score tables that
// order those rows for range queries. The dataset is the only copy of the
// corpus a generation holds; cluster documents are rendered from it per
// request. All fields are written once by Build (and the generation by
// Source.Swap) and never mutated afterwards, which is what makes lock-free
// serving sound.
type Snapshot struct {
	generation uint64
	ds         *core.Dataset
	provenance json.RawMessage

	stats      json.RawMessage
	years      json.RawMessage
	yearsTotal int
	histogram  json.RawMessage
	versions   json.RawMessage
	versTotal  int
	summary    json.RawMessage

	// Per cluster, addressed by rank: the cluster's position in the
	// dataset's first-seen order.
	rank  map[string]int
	views []json.RawMessage
	rows  []ClusterSummary
	// tables[by] lists the ranks of the clusters that have the score, in
	// ascending (score, rank) order.
	tables [numScores][]int
}

// ClusterSummary is one cluster's row of the snapshot's tables: everything
// /v1/clusters and /v1/clusters/summary need, instead of a document visit.
type ClusterSummary struct {
	NCID      string
	Size      int64
	Plaus     float64
	HasPlaus  bool
	Hetero    float64
	HasHetero bool
}

// Score names one of the three orders /v1/clusters can list clusters in.
type Score int

const (
	BySize Score = iota
	ByPlausibility
	ByHeterogeneity
	numScores
)

// score returns the row's value in the given order and whether it has one;
// every cluster has a size.
func (e *ClusterSummary) score(by Score) (float64, bool) {
	switch by {
	case ByPlausibility:
		return e.Plaus, e.HasPlaus
	case ByHeterogeneity:
		return e.Hetero, e.HasHetero
	}
	return float64(e.Size), true
}

// ScoreRange is the inclusive score filter of the cluster list; the Has
// flags distinguish "unbounded" from a zero bound.
type ScoreRange struct {
	Min, Max       float64
	HasMin, HasMax bool
}

// SizeBounds is the inclusive cluster-size filter of the summary endpoint;
// the Has flags distinguish "unbounded" from a zero bound.
type SizeBounds struct {
	Min, Max       int64
	HasMin, HasMax bool
}

// unbounded reports whether no size filter is set.
func (b SizeBounds) unbounded() bool { return !b.HasMin && !b.HasMax }

// ErrBadCursor is returned by ClusterPage when afterID does not name a
// cluster that has the listed score — a stale or forged cursor.
var ErrBadCursor = errors.New("serving: bad page cursor")

// BuildOpts tunes Build.
type BuildOpts struct {
	// Workers is the worker count of the pass over the clusters
	// (0 = GOMAXPROCS). The built snapshot is identical at any count.
	Workers int
	// Provenance is the provenance record of the store this snapshot was
	// loaded from as compact JSON, served verbatim on /v1/provenance. Nil
	// when the store carries no record.
	Provenance json.RawMessage
}

// Build freezes one dataset version into a snapshot: the dataset-level
// payloads, then one pass over the clusters that renders each record view
// (core's direct encoder, no intermediate documents) and fills its summary
// row, then the three score tables. The cost is paid once per generation —
// and spread over the workers — instead of per request.
func Build(ds *core.Dataset, opts BuildOpts) *Snapshot {
	sn := &Snapshot{ds: ds, provenance: opts.Provenance}
	sn.stats = mustMarshal(statsPayload(ds))
	years := ds.YearlyStats()
	sn.years = mustMarshal(years)
	sn.yearsTotal = len(years)
	sn.histogram = mustMarshal(histogramPayload(ds))
	versions := ds.Versions()
	sn.versions = mustMarshal(versions)
	sn.versTotal = len(versions)

	ids := ds.NCIDs()
	sn.views = make([]json.RawMessage, len(ids))
	sn.rows = make([]ClusterSummary, len(ids))
	forEachRank(len(ids), opts.Workers, func(rank int, buf *[]byte) {
		c := ds.Cluster(ids[rank])
		var err error
		if *buf, err = c.AppendRecordViewJSON((*buf)[:0]); err != nil {
			// Same convention as Dataset.ToDocDB: a cluster that does not
			// render (a NaN score) is a programming bug.
			panic("serving: record view of " + c.NCID + ": " + err.Error())
		}
		sn.views[rank] = bytes.Clone(*buf)
		row := ClusterSummary{NCID: c.NCID, Size: int64(len(c.Records))}
		row.Plaus, row.HasPlaus, row.Hetero, row.HasHetero = c.DocScores()
		sn.rows[rank] = row
	})
	sn.rank = make(map[string]int, len(ids))
	for rank, id := range ids {
		sn.rank[id] = rank
	}
	for by := range sn.tables {
		sn.tables[by] = sn.buildTable(Score(by))
	}
	sn.summary = mustMarshal(sn.foldSummary(SizeBounds{}))
	return sn
}

// forEachRank calls visit for every rank in [0, n), each rank exactly once,
// on up to workers goroutines; buf is the calling worker's render buffer,
// kept between its visits.
func forEachRank(n, workers int, visit func(rank int, buf *[]byte)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Ranks are claimed in blocks, so neighbours share a worker's buffer and
	// the counter is not the bottleneck on small clusters.
	const block = 16
	var next atomic.Int64
	work := func() {
		var buf []byte
		for lo := int(next.Add(block)) - block; lo < n; lo = int(next.Add(block)) - block {
			for rank := lo; rank < min(lo+block, n); rank++ {
				visit(rank, &buf)
			}
		}
	}
	if workers = min(workers, (n+block-1)/block); workers <= 1 {
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

// buildTable sorts the ranks of the clusters that have the score by
// (score, rank): ascending score, ties in first-seen order. The key is total,
// so the table does not depend on how the rows were filled.
func (sn *Snapshot) buildTable(by Score) []int {
	table := make([]int, 0, len(sn.rows))
	for rank := range sn.rows {
		if _, ok := sn.rows[rank].score(by); ok {
			table = append(table, rank)
		}
	}
	slices.SortFunc(table, func(a, b int) int {
		va, _ := sn.rows[a].score(by)
		vb, _ := sn.rows[b].score(by)
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		}
		return cmp.Compare(a, b)
	})
	return table
}

// Generation returns the generation stamped by Source.Swap (0 before).
func (sn *Snapshot) Generation() uint64 { return sn.generation }

// Dataset returns the dataset this snapshot was built from. Callers must
// treat it as read-only.
func (sn *Snapshot) Dataset() *core.Dataset { return sn.ds }

// Provenance returns the provenance record this generation serves, or nil
// when its store carried none.
func (sn *Snapshot) Provenance() json.RawMessage { return sn.provenance }

// Stats returns the marshaled /v1/stats payload.
func (sn *Snapshot) Stats() json.RawMessage { return sn.stats }

// Years returns the marshaled /v1/years items and their count.
func (sn *Snapshot) Years() (json.RawMessage, int) { return sn.years, sn.yearsTotal }

// Histogram returns the marshaled /v1/histogram payload.
func (sn *Snapshot) Histogram() json.RawMessage { return sn.histogram }

// Versions returns the marshaled /v1/versions items and their count.
func (sn *Snapshot) Versions() (json.RawMessage, int) { return sn.versions, sn.versTotal }

// RecordView returns the marshaled /v1/records/{ncid} payload of one
// cluster — the O(1) census-lookup path.
func (sn *Snapshot) RecordView(ncid string) (json.RawMessage, bool) {
	rank, ok := sn.rank[ncid]
	if !ok {
		return nil, false
	}
	return sn.views[rank], true
}

// ClusterDoc renders the /v1/clusters/{ncid} payload — the whole cluster
// document, reproducibility meta block included — from the dataset. It is
// not kept: documents are the bulk of a corpus, and a second resident copy
// per generation buys nothing a render does not deliver in microseconds.
// The error is the encoder's (a NaN score).
func (sn *Snapshot) ClusterDoc(ncid string) (json.RawMessage, bool, error) {
	rank, ok := sn.rank[ncid]
	if !ok {
		return nil, false, nil
	}
	c := sn.ds.Cluster(ncid)
	// The document is the record view plus the meta block; sizing the buffer
	// for both up front saves the render a dozen rounds of growing it. The
	// block took 230 to 540 bytes per record on the corpora measured, and a
	// document that needs more just grows.
	const metaPerRecord = 512
	raw, err := c.AppendDocJSON(make([]byte, 0, len(sn.views[rank])+metaPerRecord*len(c.Records)))
	return raw, true, err
}

// ClusterPage lists the summary rows of the clusters whose score lies in the
// range, in ascending score order with ties in first-seen order: at most
// limit rows, resuming strictly after the cluster afterID ("" starts at the
// beginning). next is the NCID to pass as afterID for the following page, or
// "" when the range is exhausted; total counts the whole range, whatever the
// cursor and the limit. Clusters without the score are in no range. A
// non-empty afterID that names no cluster with the score yields
// ErrBadCursor.
func (sn *Snapshot) ClusterPage(by Score, r ScoreRange, afterID string, limit int) (page []ClusterSummary, next string, total int, err error) {
	table := sn.tables[by]
	value := func(i int) float64 {
		v, _ := sn.rows[table[i]].score(by)
		return v
	}
	// The bounds are written as negations so that a NaN bound, which
	// strconv.ParseFloat lets through, orders like the document store's
	// three-way compare did: equal to everything.
	start, end := 0, len(table)
	if r.HasMin {
		start = sort.Search(len(table), func(i int) bool { return !(value(i) < r.Min) })
	}
	if r.HasMax {
		end = sort.Search(len(table), func(i int) bool { return value(i) > r.Max })
	}
	total = max(end-start, 0)
	if afterID != "" {
		rank, ok := sn.rank[afterID]
		if !ok {
			return nil, "", 0, ErrBadCursor
		}
		v, ok := sn.rows[rank].score(by)
		if !ok {
			return nil, "", 0, ErrBadCursor
		}
		// (score, rank) is the table's sort key, so the cursor's own entry
		// is a binary search away — also inside a long run of ties.
		at := sort.Search(len(table), func(i int) bool {
			vi := value(i)
			return vi > v || vi == v && table[i] >= rank
		})
		start = max(start, at+1)
	}
	if limit <= 0 || start >= end {
		return nil, "", total, nil
	}
	stop := min(start+limit, end)
	page = make([]ClusterSummary, 0, stop-start)
	for _, rank := range table[start:stop] {
		page = append(page, sn.rows[rank])
	}
	if stop < end {
		next = page[len(page)-1].NCID
	}
	return page, next, total, nil
}

// Summary returns the /v1/clusters/summary payload for the given bounds:
// the precomputed marshaled payload when unbounded, otherwise a fresh fold
// over the contiguous size range of the size table (binary search, no
// cluster visits). Every accumulator is a count, an extreme or an integer
// histogram bin, so fold order cannot change the payload.
func (sn *Snapshot) Summary(b SizeBounds) any {
	if b.unbounded() {
		return sn.summary
	}
	return sn.foldSummary(b)
}

// foldSummary aggregates the summary rows inside the bounds.
func (sn *Snapshot) foldSummary(b SizeBounds) map[string]any {
	table := sn.tables[BySize]
	lo, hi := 0, len(table)
	if b.HasMin {
		lo = sort.Search(len(table), func(i int) bool { return sn.rows[table[i]].Size >= b.Min })
	}
	if b.HasMax {
		hi = sort.Search(len(table), func(i int) bool { return sn.rows[table[i]].Size > b.Max })
	}
	var acc SummaryAccumulator
	for i := lo; i < hi; i++ {
		e := &sn.rows[table[i]]
		acc.Add(e.Size, e.Plaus, e.HasPlaus, e.Hetero, e.HasHetero)
	}
	return acc.Payload()
}

// statsPayload renders the /v1/stats payload.
func statsPayload(ds *core.Dataset) map[string]any {
	return map[string]any{
		"mode":           ds.Mode.String(),
		"clusters":       ds.NumClusters(),
		"records":        ds.NumRecords(),
		"duplicatePairs": ds.NumPairs(),
		"totalRows":      ds.TotalRows(),
		"removedRecords": ds.RemovedRecords(),
		"avgClusterSize": ds.AvgClusterSize(),
		"maxClusterSize": ds.MaxClusterSize(),
		"versions":       len(ds.Versions()),
	}
}

// histogramPayload renders the /v1/histogram payload (cluster size →
// cluster count, Fig. 1).
func histogramPayload(ds *core.Dataset) map[string]int {
	out := map[string]int{}
	for size, n := range ds.ClusterSizeHistogram() {
		out[strconv.Itoa(size)] = n
	}
	return out
}

// mustMarshal marshals a value built from marshalable parts; failure is a
// programming bug (same convention as Dataset.ToDocDB).
func mustMarshal(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		panic("serving: payload marshal failed: " + err.Error())
	}
	return b
}
