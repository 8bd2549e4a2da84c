package testkit

import (
	"errors"
	"sort"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/serving"
)

// ServingOracle answers the API's cluster endpoints from a document database
// by the plainest means there are: documents and projections for
// encoding/json to marshal, list pages from a stable sort of the documents
// that carry the score followed by linear range and cursor scans, the
// summary from one pass with a size comparison. It shares no table, index
// or search with the serving snapshot. The served bytes are held equal to
// it; nothing outside tests calls it.
type ServingOracle struct {
	clusters *docstore.Collection
}

// NewServingOracle reads the database's cluster collection. The database is
// a dataset's ToDocDB, or a store loaded from disk (sizes are float64 there;
// every method takes both).
func NewServingOracle(db *docstore.DB) ServingOracle {
	return ServingOracle{db.Collection(core.ClustersCollection)}
}

// ErrBadCursor is ClusterList's error for an afterID that names no cluster
// document carrying the listed score — a stale or forged cursor.
var ErrBadCursor = errors.New("testkit: bad page cursor")

// ClusterDoc is the /v1/clusters/{ncid} payload, nil for an unknown id.
func (o ServingOracle) ClusterDoc(ncid string) docstore.Document { return o.clusters.Get(ncid) }

// RecordView is the /v1/records/{ncid} payload, nil for an unknown id.
func (o ServingOracle) RecordView(ncid string) docstore.Document {
	doc := o.clusters.Get(ncid)
	if doc == nil {
		return nil
	}
	return RecordViewPayload(doc)
}

// RecordViewPayload projects a cluster document onto the record view: the
// person's records plus the cluster-level scores, without the
// reproducibility meta block.
func RecordViewPayload(doc docstore.Document) docstore.Document {
	view := docstore.D("ncid", doc["_id"], "size", doc["size"], "records", doc["records"])
	if p, ok := doc["plausibility"]; ok {
		view["plausibility"] = p
	}
	if h, ok := doc["heterogeneity"]; ok {
		view["heterogeneity"] = h
	}
	return view
}

// number widens the two numeric types a cluster document holds: int fresh
// from ToDocDB, float64 after a load.
func number(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	}
	return 0, false
}

// compareNumbers is the three-way order the lists are defined by. NaN is
// neither below nor above anything, so it compares equal to every value: a
// NaN bound admits every document.
func compareNumbers(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// ClusterList is one /v1/clusters page: the items, the id the next page
// resumes after ("" on the last) and the range's total. The order is
// ascending score with ties in insertion order; documents without a number
// at score are in no page and no total. lo and hi are nil or float64, limit
// is at least 1, and the cursor's own score may lie outside the range. The
// error is ErrBadCursor.
func (o ServingOracle) ClusterList(score string, lo, hi any, afterID string, limit int) (items []map[string]any, next string, total int, err error) {
	var docs []docstore.Document
	o.clusters.ForEach(func(d docstore.Document) bool {
		if _, ok := number(d[score]); ok {
			docs = append(docs, d)
		}
		return true
	})
	value := func(d docstore.Document) float64 {
		v, _ := number(d[score])
		return v
	}
	sort.SliceStable(docs, func(i, j int) bool {
		return compareNumbers(value(docs[i]), value(docs[j])) < 0
	})
	cursor := -1
	if afterID != "" {
		for i, d := range docs {
			if d["_id"] == afterID {
				cursor = i
				break
			}
		}
		if cursor < 0 {
			return nil, "", 0, ErrBadCursor
		}
	}
	var page []docstore.Document // the range's documents after the cursor
	for i, d := range docs {
		if lo != nil && compareNumbers(value(d), lo.(float64)) < 0 ||
			hi != nil && compareNumbers(value(d), hi.(float64)) > 0 {
			continue
		}
		total++
		if i > cursor {
			page = append(page, d)
		}
	}
	if len(page) > limit {
		page = page[:limit]
		next, _ = page[limit-1]["_id"].(string)
	}
	items = make([]map[string]any, 0, len(page))
	for _, d := range page {
		item := map[string]any{"ncid": d["_id"], "size": d["size"]}
		if p, ok := d["plausibility"]; ok {
			item["plausibility"] = p
		}
		if h, ok := d["heterogeneity"]; ok {
			item["heterogeneity"] = h
		}
		items = append(items, item)
	}
	return items, next, total, nil
}

// Summary is the /v1/clusters/summary payload for the bounds.
func (o ServingOracle) Summary(b serving.SizeBounds) map[string]any {
	var acc serving.SummaryAccumulator
	o.clusters.ForEach(func(d docstore.Document) bool {
		n, _ := number(d["size"])
		size := int64(n)
		if b.HasMin && size < b.Min || b.HasMax && size > b.Max {
			return true
		}
		p, hasP := d["plausibility"].(float64)
		h, hasH := d["heterogeneity"].(float64)
		acc.Add(size, p, hasP, h, hasH)
		return true
	})
	return acc.Payload()
}
