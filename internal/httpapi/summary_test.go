package httpapi

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/serving"
	"repro/internal/testkit"
)

func TestClusterSummary(t *testing.T) {
	ds := testDataset(t)

	// The aggregation is the fold of a scan over the corpus's documents
	// (serving's BuildOpts.Workers ladder covers the snapshot build's
	// worker count).
	ref := viaJSON(t, testkit.NewServingOracle(ds.ToDocDB()).Summary(serving.SizeBounds{}))
	srv := httptest.NewServer(newPublished(ds, WithLogger(testLogger())))
	var got map[string]any
	if code, _ := getData(t, srv.URL+"/v1/clusters/summary", &got); code != 200 {
		t.Fatalf("summary code = %d", code)
	}
	srv.Close()
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("summary diverged from the document scan:\n%v\nvs\n%v", got, ref)
	}

	clusters, _ := ref["clusters"].(float64)
	records, _ := ref["records"].(float64)
	if clusters <= 0 || records < clusters {
		t.Fatalf("summary counts look wrong: %v clusters, %v records", clusters, records)
	}
	if _, ok := ref["size"].(map[string]any); !ok {
		t.Error("summary misses the size block")
	}
	plaus, ok := ref["plausibility"].(map[string]any)
	if !ok {
		t.Fatal("summary misses the plausibility block")
	}
	for _, k := range []string{"count", "min", "max", "p10", "p50", "p90"} {
		if _, ok := plaus[k]; !ok {
			t.Errorf("plausibility summary misses %q", k)
		}
	}
	lo, _ := plaus["p10"].(float64)
	mid, _ := plaus["p50"].(float64)
	hi, _ := plaus["p90"].(float64)
	if lo > mid || mid > hi {
		t.Errorf("quantiles out of order: p10=%v p50=%v p90=%v", lo, mid, hi)
	}
}

// viaJSON passes a payload through encoding/json, as a client sees it.
func viaJSON(t *testing.T, payload map[string]any) map[string]any {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSummaryDoesNotShadowClusterLookup(t *testing.T) {
	// "/clusters/summary" is more specific than "/clusters/{ncid}"; both
	// must keep working side by side.
	srv := testServer(t)
	var list []map[string]any
	getData(t, srv.URL+"/v1/clusters?limit=1", &list)
	if len(list) == 0 {
		t.Fatal("no clusters to look up")
	}
	ncid, _ := list[0]["ncid"].(string)
	var doc map[string]any
	if code, _ := getData(t, srv.URL+"/v1/clusters/"+ncid, &doc); code != 200 {
		t.Fatalf("cluster lookup = %d", code)
	}
	var sum map[string]any
	if code, _ := getData(t, srv.URL+"/v1/clusters/summary", &sum); code != 200 {
		t.Fatalf("summary = %d", code)
	}
	if _, ok := sum["clusters"]; !ok {
		t.Error("summary response misses the clusters count")
	}
}

func TestSummarySizeFilter(t *testing.T) {
	ds := testDataset(t)
	srv := httptest.NewServer(newPublished(ds, WithLogger(testLogger())))
	defer srv.Close()
	var all, filtered map[string]any
	getData(t, srv.URL+"/v1/clusters/summary", &all)
	if code, _ := getData(t, srv.URL+"/v1/clusters/summary?minSize=2", &filtered); code != 200 {
		t.Fatalf("filtered summary code = %d", code)
	}
	// The filtered fold is what one pass over the documents with a size
	// comparison yields.
	want := viaJSON(t, testkit.NewServingOracle(ds.ToDocDB()).Summary(serving.SizeBounds{Min: 2, HasMin: true}))
	if !reflect.DeepEqual(filtered, want) {
		t.Errorf("filtered summary diverged from the document scan:\n%v\nvs\n%v", filtered, want)
	}
	allN, _ := all["clusters"].(float64)
	fN, _ := filtered["clusters"].(float64)
	if fN <= 0 || fN > allN {
		t.Fatalf("filtered clusters = %v, all = %v", fN, allN)
	}
	if size, ok := filtered["size"].(map[string]any); ok {
		if lo, _ := size["min"].(float64); lo < 2 {
			t.Errorf("minSize=2 returned a cluster of size %v", lo)
		}
	}
	var bad map[string]any
	if code, _ := getData(t, srv.URL+"/v1/clusters/summary?minSize=two", &bad); code != 400 {
		t.Errorf("malformed minSize code = %d, want 400", code)
	}
}
