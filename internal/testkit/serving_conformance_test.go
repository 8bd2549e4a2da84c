package testkit_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/docstore"
	"repro/internal/hetero"
	"repro/internal/httpapi"
	"repro/internal/plaus"
	"repro/internal/serving"
	"repro/internal/testkit"
)

// servingResponse is one recorded response: status, the generation
// validators and the exact body bytes. The serving-conformance contract is
// byte identity — a snapshot built at any worker count must serve exactly
// what encoding/json and the document store's indexes produce from the
// corpus's documents, envelope and all.
type servingResponse struct {
	Status     int
	ETag       string
	Generation string
	Body       string
}

func servingDataset(tb testing.TB) *core.Dataset {
	tb.Helper()
	corpus := testkit.Corpus{Seed: 7}
	ds := core.NewDataset(core.RemoveTrimmed)
	for _, p := range corpus.SnapshotFiles(tb, 120, 3) {
		importReference(tb, ds, p)
	}
	plaus.Update(ds)
	hetero.Update(ds)
	ds.Publish()
	return ds
}

func fetchAll(tb testing.TB, api *httpapi.Server, paths []string) map[string]servingResponse {
	tb.Helper()
	out := make(map[string]servingResponse, len(paths))
	for _, p := range paths {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
		out[p] = servingResponse{
			Status:     rec.Code,
			ETag:       rec.Header().Get("ETag"),
			Generation: rec.Header().Get("X-Dataset-Generation"),
			Body:       rec.Body.String(),
		}
	}
	return out
}

// envelopeMeta and envelopeOracle restate the {data, meta} envelope as the
// struct json.Encoder rendered before payloads were spliced.
type envelopeMeta struct {
	Generation uint64 `json:"generation"`
	Total      *int   `json:"total,omitempty"`
	NextCursor string `json:"nextCursor,omitempty"`
}

type envelopeOracle struct {
	Data any          `json:"data"`
	Meta envelopeMeta `json:"meta"`
}

// okResponse renders the 200 response of generation 1 for a payload.
func okResponse(tb testing.TB, data any, total *int, nextID string) servingResponse {
	tb.Helper()
	m := envelopeMeta{Generation: 1, Total: total}
	if nextID != "" {
		m.NextCursor = cursorFor(nextID)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(envelopeOracle{Data: data, Meta: m}); err != nil {
		tb.Fatalf("oracle envelope: %v", err)
	}
	return servingResponse{Status: 200, ETag: `"g1"`, Generation: "1", Body: buf.String()}
}

func errorResponse(status int, code, msg string) servingResponse {
	return servingResponse{Status: status, Body: fmt.Sprintf("{\"error\":{\"code\":%q,\"message\":%q}}\n", code, msg)}
}

// cursorFor is the API's opaque page cursor for "resume after this id".
func cursorFor(id string) string {
	return base64.RawURLEncoding.EncodeToString([]byte("v1:" + id))
}

// listQuery is one /v1/clusters range; the oracle walks it page by page.
type listQuery struct {
	score    string // "" = the default order
	min, max string // "" = unbounded; otherwise a ParseFloat input
	limit    int
}

func (q listQuery) path(cursor string) string {
	v := url.Values{}
	for key, val := range map[string]string{"score": q.score, "min": q.min, "max": q.max, "cursor": cursor} {
		if val != "" {
			v.Set(key, val)
		}
	}
	if q.limit > 0 {
		v.Set("limit", strconv.Itoa(q.limit))
	}
	return "/v1/clusters?" + v.Encode()
}

func (q listQuery) bounds(tb testing.TB) (path string, lo, hi any, limit int) {
	tb.Helper()
	parse := func(s string) any {
		if s == "" {
			return nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			tb.Fatalf("list query bound %q: %v", s, err)
		}
		return f
	}
	path, limit = q.score, q.limit
	if path == "" {
		path = "size"
	}
	if limit == 0 {
		limit = 100
	}
	return path, parse(q.min), parse(q.max), limit
}

// expectedServing computes, from the document database alone, the response
// to every pinned path: the dataset-level endpoints, every cluster's
// document and record view, the summaries, and every page of every list
// query with the cursors the pages hand out.
func expectedServing(tb testing.TB, ds *core.Dataset, db *docstore.DB) (paths []string, want map[string]servingResponse) {
	tb.Helper()
	oracle := testkit.NewServingOracle(db)
	want = map[string]servingResponse{}
	pin := func(path string, resp servingResponse) {
		if _, dup := want[path]; dup {
			tb.Fatalf("path pinned twice: %s", path)
		}
		paths = append(paths, path)
		want[path] = resp
	}

	hist := map[string]int{}
	for size, n := range ds.ClusterSizeHistogram() {
		hist[strconv.Itoa(size)] = n
	}
	years, versions := ds.YearlyStats(), ds.Versions()
	nYears, nVersions := len(years), len(versions)
	pin("/v1/stats", okResponse(tb, map[string]any{
		"mode":           ds.Mode.String(),
		"clusters":       ds.NumClusters(),
		"records":        ds.NumRecords(),
		"duplicatePairs": ds.NumPairs(),
		"totalRows":      ds.TotalRows(),
		"removedRecords": ds.RemovedRecords(),
		"avgClusterSize": ds.AvgClusterSize(),
		"maxClusterSize": ds.MaxClusterSize(),
		"versions":       nVersions,
	}, nil, ""))
	pin("/v1/years", okResponse(tb, years, &nYears, ""))
	pin("/v1/histogram", okResponse(tb, hist, nil, ""))
	pin("/v1/versions", okResponse(tb, versions, &nVersions, ""))
	pin("/v1/healthz", okResponse(tb, map[string]any{
		"status": "ready", "clusters": ds.NumClusters(), "records": ds.NumRecords(),
	}, nil, ""))
	pin("/v1/provenance", errorResponse(404, "no_provenance", "the served store carries no provenance record"))

	for query, b := range map[string]serving.SizeBounds{
		"":                     {},
		"?minSize=2":           {Min: 2, HasMin: true},
		"?maxSize=1":           {Max: 1, HasMax: true},
		"?minSize=2&maxSize=6": {Min: 2, Max: 6, HasMin: true, HasMax: true},
		"?minSize=99999":       {Min: 99999, HasMin: true},
		"?minSize=5&maxSize=2": {Min: 5, Max: 2, HasMin: true, HasMax: true},
	} {
		pin("/v1/clusters/summary"+query, okResponse(tb, oracle.Summary(b), nil, ""))
	}

	var unscored string // a cluster without a plausibility: no pair to score
	for _, ncid := range ds.NCIDs() {
		doc := oracle.ClusterDoc(ncid)
		if doc == nil {
			tb.Fatalf("document database misses cluster %s", ncid)
		}
		if _, ok := doc["plausibility"]; !ok {
			unscored = ncid
		}
		pin("/v1/clusters/"+ncid, okResponse(tb, doc, nil, ""))
		pin("/v1/records/"+ncid, okResponse(tb, oracle.RecordView(ncid), nil, ""))
	}
	if unscored == "" {
		tb.Fatal("corpus has no cluster lacking a score")
	}
	pin("/v1/clusters/NOPE", errorResponse(404, "not_found", "unknown cluster NOPE"))
	pin("/v1/records/NOPE", errorResponse(404, "not_found", "unknown ncid NOPE"))

	pages := 0
	for _, q := range []listQuery{
		{},                        // default order and limit
		{score: "size", limit: 7}, // long tie runs straddle every page edge
		{score: "size", min: "2", limit: 5},
		{score: "size", min: "2", max: "3", limit: 1000},
		{score: "size", min: "5", max: "2"}, // inverted: empty, total 0
		{score: "plausibility", limit: 9},   // clusters lacking the score are in no page and no total
		{score: "plausibility", max: "0.9", limit: 4},
		{score: "plausibility", min: "0.2", max: "0.95", limit: 3},
		{score: "heterogeneity", limit: 9},
		{score: "heterogeneity", min: "0.05", limit: 6},
		{score: "heterogeneity", min: "7"}, // above every score
		{score: "plausibility", min: "NaN", limit: 50},
		{score: "size", max: "NaN", limit: 50},
		{score: "heterogeneity", min: "-Inf", max: "+Inf", limit: 50},
	} {
		path, lo, hi, limit := q.bounds(tb)
		for afterID := ""; ; pages++ {
			items, next, total, err := oracle.ClusterList(path, lo, hi, afterID, limit)
			if err != nil {
				tb.Fatalf("oracle page %s after %q: %v", q.path(""), afterID, err)
			}
			cursor := ""
			if afterID != "" {
				cursor = cursorFor(afterID)
			}
			pin(q.path(cursor), okResponse(tb, items, &total, next))
			if afterID = next; next == "" {
				break
			}
		}
	}
	if pages < 30 {
		tb.Fatalf("list queries walked only %d pages", pages)
	}

	// Cursors no page handed out. The oracle agrees they are bad; the
	// response to a bad cursor is pinned here.
	for _, bad := range []listQuery{{score: "size"}, {score: "plausibility"}} {
		for _, id := range []string{"NOPE", unscored} {
			if bad.score == "size" && id == unscored {
				continue // every cluster has a size: a good cursor
			}
			path, lo, hi, limit := bad.bounds(tb)
			if _, _, _, err := oracle.ClusterList(path, lo, hi, id, limit); err == nil {
				tb.Fatalf("oracle accepts cursor %q on %s", id, path)
			}
			pin(bad.path(cursorFor(id)), errorResponse(400, "bad_cursor", "stale or unknown cursor"))
		}
	}
	for _, malformed := range []string{"!!!", "Tk9QRQ", cursorFor("")} { // not base64; no version prefix; empty id
		pin(listQuery{score: "size"}.path(malformed), errorResponse(400, "bad_cursor", "malformed cursor"))
	}
	return paths, want
}

// TestConformanceServing pins the served bytes to the document payload
// functions: for the seeded corpus fresh from import, and again for the
// dataset a segmented save/load round trip gives back (held against the
// database as loaded from disk, where sizes are float64), every pinned path
// — dataset-level payloads, every cluster's document and record view,
// summaries, every page of every list order with its cursor and total, bad
// cursors, 404s — must be answered byte-identically by a snapshot built at
// any worker count. Each server publishes once, so meta.generation and the
// validators are part of the comparison.
func TestConformanceServing(t *testing.T) {
	fresh := servingDataset(t)
	dir := t.TempDir()
	if err := fresh.ToDocDB().SaveParallelOpts(dir, docstore.SaveOpts{Stride: 16}); err != nil {
		t.Fatal(err)
	}
	stored, err := docstore.LoadParallelOpts(dir, docstore.LoadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := core.FromDocDBParallel(stored, 2)
	if err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	for _, tc := range []struct {
		name string
		ds   *core.Dataset
		db   *docstore.DB
	}{
		{"fresh", fresh, fresh.ToDocDB()},
		{"reloaded", reloaded, stored},
	} {
		paths, want := expectedServing(t, tc.ds, tc.db)
		testkit.Differential[map[string]servingResponse]{
			Name:       "serving/" + tc.name + "/snapshot-vs-documents",
			Sequential: func(testing.TB) map[string]servingResponse { return want },
			Parallel: func(tb testing.TB, workers int) map[string]servingResponse {
				// The snapshot build runs on GOMAXPROCS workers.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
				api := httpapi.NewDeferred(httpapi.WithLogger(logger), httpapi.WithResponseCache(-1))
				api.Publish(tc.ds)
				return fetchAll(tb, api, paths)
			},
			Compare: func(tb testing.TB, want, got map[string]servingResponse) {
				for _, p := range paths {
					if w, g := want[p], got[p]; w != g {
						tb.Errorf("%s diverged\nserved:    %+v\ndocuments: %+v", p, g, w)
					}
				}
			},
		}.Run(t)
	}
}
