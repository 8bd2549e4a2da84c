package testkit

import (
	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/serving"
)

// ServingOracle answers the API's cluster endpoints from a document database
// the way the store-backed serving mode computed them per request before the
// snapshot tables replaced it: documents and projections for encoding/json
// to marshal, list pages and totals from the ordered indexes, the summary
// from a scan or a Pipeline whose Match pushes down to the size index. The
// served bytes are held equal to it; nothing outside tests calls it.
type ServingOracle struct {
	clusters *docstore.Collection
}

// NewServingOracle indexes the database's cluster collection for the three
// list orders. The database is a dataset's ToDocDB, or a store loaded from
// disk (sizes are float64 there; every method takes both).
func NewServingOracle(db *docstore.DB) ServingOracle {
	clusters := db.Collection(core.ClustersCollection)
	for _, score := range []string{"plausibility", "heterogeneity", "size"} {
		clusters.CreateOrderedIndex(score)
	}
	return ServingOracle{clusters}
}

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

// ClusterList is one /v1/clusters page: the items, the id the next page
// resumes after ("" on the last) and the range's total. lo and hi are nil or
// float64. The error is docstore.ErrBadCursor.
func (o ServingOracle) ClusterList(score string, lo, hi any, afterID string, limit int) (items []map[string]any, next string, total int, err error) {
	docs, next, err := o.clusters.FindRangePage(score, lo, hi, afterID, limit)
	if err != nil {
		return nil, "", 0, err
	}
	items = make([]map[string]any, 0, len(docs))
	for _, d := range docs {
		item := map[string]any{"ncid": d["_id"], "size": d["size"]}
		if p, ok := d["plausibility"]; ok {
			item["plausibility"] = p
		}
		if h, ok := d["heterogeneity"]; ok {
			item["heterogeneity"] = h
		}
		items = append(items, item)
	}
	return items, next, o.clusters.CountRange(score, lo, hi), nil
}

// Summary is the /v1/clusters/summary payload for the bounds.
func (o ServingOracle) Summary(b serving.SizeBounds) map[string]any {
	var acc serving.SummaryAccumulator
	fold := func(d docstore.Document) bool {
		var size int64
		switch v := d["size"].(type) {
		case float64:
			size = int64(v)
		case int:
			size = int64(v)
		}
		p, hasP := d["plausibility"].(float64)
		h, hasH := d["heterogeneity"].(float64)
		acc.Add(size, p, hasP, h, hasH)
		return true
	}
	if b.Unbounded() {
		o.clusters.ForEach(fold)
		return acc.Payload()
	}
	var sizeFilters []docstore.Filter
	if b.HasMin {
		sizeFilters = append(sizeFilters, docstore.Gte("size", float64(b.Min)))
	}
	if b.HasMax {
		sizeFilters = append(sizeFilters, docstore.Lte("size", float64(b.Max)))
	}
	for _, d := range o.clusters.Pipeline(docstore.Match{Filter: docstore.And(sizeFilters...)}) {
		fold(d)
	}
	return acc.Payload()
}
