package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/obs"
	"repro/internal/plaus"
	"repro/internal/synth"
	"repro/internal/testkit"
)

func testDataset(t *testing.T) *core.Dataset {
	t.Helper()
	cfg := synth.DefaultConfig(19, 150)
	cfg.Snapshots = synth.Calendar(2008, 3)
	ds := core.NewDataset(core.RemoveTrimmed)
	for _, s := range synth.Generate(cfg) {
		ds.ImportSnapshot(s)
	}
	plaus.Update(ds)
	hetero.Update(ds)
	ds.Publish()
	return ds
}

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newPublished is NewDeferred with ds published as the first generation.
func newPublished(ds *core.Dataset, opts ...Option) *Server {
	s := NewDeferred(opts...)
	s.Publish(ds)
	return s
}

func testServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(newPublished(testDataset(t), append([]Option{WithLogger(testLogger())}, opts...)...))
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil && err != io.EOF {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

// respMeta mirrors the envelope's meta block.
type respMeta struct {
	Generation uint64 `json:"generation"`
	Total      int    `json:"total"`
	NextCursor string `json:"nextCursor"`
}

// getData decodes a {data, meta} envelope, unmarshaling data into `into`
// (which may be nil to ignore the payload).
func getData(t *testing.T, url string, into any) (int, respMeta) {
	t.Helper()
	var env struct {
		Data json.RawMessage `json:"data"`
		Meta respMeta        `json:"meta"`
	}
	code := getJSON(t, url, &env)
	if into != nil && len(env.Data) > 0 && string(env.Data) != "null" {
		if err := json.Unmarshal(env.Data, into); err != nil {
			t.Fatalf("GET %s: data decode: %v", url, err)
		}
	}
	return code, env.Meta
}

func TestStatsEndpoint(t *testing.T) {
	srv := testServer(t)
	var stats map[string]any
	code, m := getData(t, srv.URL+"/v1/stats", &stats)
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if m.Generation == 0 {
		t.Error("meta.generation missing")
	}
	if stats["mode"] != "trimming" {
		t.Errorf("mode = %v", stats["mode"])
	}
	if stats["clusters"].(float64) <= 0 || stats["records"].(float64) <= 0 {
		t.Errorf("empty stats: %v", stats)
	}
	if stats["totalRows"].(float64) < stats["records"].(float64) {
		t.Errorf("total rows < records: %v", stats)
	}
}

func TestListEnvelopes(t *testing.T) {
	srv := testServer(t)
	var years []map[string]any
	code, m := getData(t, srv.URL+"/v1/years", &years)
	if code != 200 || len(years) == 0 {
		t.Fatalf("years: code %d, %+v", code, years)
	}
	if m.Total != len(years) {
		t.Errorf("years total = %d, items = %d", m.Total, len(years))
	}
	var versions []map[string]any
	code, m = getData(t, srv.URL+"/v1/versions", &versions)
	if code != 200 || m.Total != 1 {
		t.Fatalf("versions: code %d, total %d", code, m.Total)
	}
	var hist map[string]int
	if code, _ := getData(t, srv.URL+"/v1/histogram", &hist); code != 200 || len(hist) == 0 {
		t.Fatalf("histogram: code %d, %v", code, hist)
	}
}

func TestClusterLookup(t *testing.T) {
	srv := testServer(t)
	var list []map[string]any
	if code, _ := getData(t, srv.URL+"/v1/clusters?score=size&min=2&limit=1", &list); code != 200 || len(list) == 0 {
		t.Fatalf("query: code %d, %+v", code, list)
	}
	ncid := list[0]["ncid"].(string)
	var doc map[string]any
	if code, _ := getData(t, srv.URL+"/v1/clusters/"+ncid, &doc); code != 200 {
		t.Fatalf("lookup code = %d", code)
	}
	if doc["_id"] != ncid {
		t.Errorf("doc id = %v", doc["_id"])
	}
	if _, ok := doc["records"]; !ok {
		t.Error("cluster doc misses records")
	}
}

func TestRecordsEndpoint(t *testing.T) {
	ds := testDataset(t)
	srv := httptest.NewServer(newPublished(ds, WithLogger(testLogger())))
	defer srv.Close()
	oracle := testkit.NewServingOracle(ds.ToDocDB())
	for _, ncid := range ds.NCIDs() {
		var view json.RawMessage
		code, m := getData(t, srv.URL+"/v1/records/"+ncid, &view)
		if code != 200 || m.Generation == 0 {
			t.Fatalf("%s: record lookup = %d, generation %d", ncid, code, m.Generation)
		}
		// The served view is the projection of the cluster document that
		// encoding/json renders — byte for byte.
		doc := oracle.RecordView(ncid)
		want, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if string(view) != string(want) {
			t.Fatalf("%s: served view diverged from the document projection:\n got %s\nwant %s", ncid, view, want)
		}
		if doc["ncid"] != ncid || doc["records"] == nil {
			t.Fatalf("%s: view misses its id or records: %v", ncid, doc)
		}
		if _, ok := doc["meta"]; ok {
			t.Fatalf("%s: record view leaks the meta block", ncid)
		}
	}
	var env obs.ErrorEnvelope
	if code := getJSON(t, srv.URL+"/v1/records/NOPE", &env); code != 404 || env.Error.Code != "not_found" {
		t.Errorf("missing ncid: code %d, %+v", code, env)
	}
}

// TestProvenanceEndpoint: the record is served in the form json embeds a
// message in — compact, HTML-safe — whatever its layout on disk, and a
// record that is not JSON is refused at Publish, in the configured log.
func TestProvenanceEndpoint(t *testing.T) {
	var logged bytes.Buffer
	api := NewDeferred(WithLogger(slog.New(slog.NewTextHandler(&logged, nil))))
	ds := testDataset(t)
	record := []byte("{\n  \"generator\": \"a<b>&c\",\n  \"chain\": [ 1, 2 ]\n}\n")
	api.PublishWithProvenance(ds, record)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/provenance", nil))
	want := `{"data":{"generator":"a\u003cb\u003e\u0026c","chain":[1,2]},"meta":{"generation":1}}` + "\n"
	if rec.Code != 200 || rec.Body.String() != want {
		t.Fatalf("provenance: status %d, body %q, want %q", rec.Code, rec.Body.String(), want)
	}

	logged.Reset()
	api.PublishWithProvenance(ds, []byte(`{"truncated":`))
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/provenance", nil))
	var env obs.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != 404 || env.Error.Code != "no_provenance" {
		t.Fatalf("broken record: status %d, body %q", rec.Code, rec.Body.String())
	}
	if !strings.Contains(logged.String(), "provenance record is not JSON") {
		t.Errorf("broken record was dropped without a word: %q", logged.String())
	}
}

func TestConditionalGet(t *testing.T) {
	ds := testDataset(t)
	api := newPublished(ds, WithLogger(testLogger()))
	srv := httptest.NewServer(api)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	gen := resp.Header.Get(headerGeneration)
	if etag == "" || gen == "" {
		t.Fatalf("missing validators: etag=%q gen=%q", etag, gen)
	}
	if etag != etagFor(api.Generation()) {
		t.Fatalf("etag = %q, want %q", etag, etagFor(api.Generation()))
	}

	// Revalidation with the current ETag answers 304 with no body.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/stats", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("revalidation: status %d, body %q", resp.StatusCode, body)
	}

	// A swap invalidates the validator: the same If-None-Match now gets a
	// full 200 with the new generation.
	api.Publish(ds)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap revalidation: status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got == etag {
		t.Fatalf("etag did not change across swap: %q", got)
	}
}

func TestResponseCache(t *testing.T) {
	ds := testDataset(t)
	api := newPublished(ds, WithLogger(testLogger()))
	srv := httptest.NewServer(api)
	defer srv.Close()

	get := func() (string, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/clusters/summary")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		return resp.Header.Get("X-Cache"), body
	}
	xc1, body1 := get()
	xc2, body2 := get()
	if xc1 != "miss" || xc2 != "hit" {
		t.Fatalf("X-Cache sequence = %q, %q; want miss, hit", xc1, xc2)
	}
	if string(body1) != string(body2) {
		t.Fatal("cache replay diverged from the computed response")
	}
	if hits := api.Metrics().Counter("serving_cache_hits"); hits != 1 {
		t.Fatalf("serving_cache_hits = %d, want 1", hits)
	}

	// A swap changes the key generation: the next request is a miss again.
	api.Publish(ds)
	if xc, _ := get(); xc != "miss" {
		t.Fatalf("post-swap X-Cache = %q, want miss", xc)
	}

	// Disabled cache serves identical data without the X-Cache header.
	plain := httptest.NewServer(newPublished(ds, WithLogger(testLogger()), WithResponseCache(-1)))
	defer plain.Close()
	resp, err := http.Get(plain.URL + "/v1/clusters/summary")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Cache") != "" {
		t.Fatal("cache disabled but X-Cache header present")
	}
}

func TestReadinessLifecycle(t *testing.T) {
	api := NewDeferred(WithLogger(testLogger()))
	srv := httptest.NewServer(api)
	defer srv.Close()

	// Not ready: data endpoints and healthz answer 503 not_ready; livez is
	// alive at generation 0.
	for _, path := range []string{"/v1/healthz", "/v1/stats", "/v1/clusters/summary", "/v1/records/x"} {
		var env obs.ErrorEnvelope
		if code := getJSON(t, srv.URL+path, &env); code != 503 || env.Error.Code != "not_ready" {
			t.Fatalf("%s before publish: code %d, %+v", path, code, env)
		}
	}
	var live map[string]any
	code, m := getData(t, srv.URL+"/v1/livez", &live)
	if code != 200 || live["status"] != "alive" || m.Generation != 0 {
		t.Fatalf("livez before publish: code %d, %v, gen %d", code, live, m.Generation)
	}

	if gen := api.Publish(testDataset(t)); gen != 1 {
		t.Fatalf("first publish generation = %d", gen)
	}
	var health map[string]any
	code, m = getData(t, srv.URL+"/v1/healthz", &health)
	if code != 200 || health["status"] != "ready" || m.Generation != 1 {
		t.Fatalf("healthz after publish: code %d, %v, gen %d", code, health, m.Generation)
	}
	if health["clusters"].(float64) <= 0 {
		t.Fatalf("healthz misses corpus shape: %v", health)
	}
}

func TestErrorEnvelopes(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name     string
		method   string
		path     string
		wantCode int
		wantErr  string
	}{
		{"bad score", "GET", "/v1/clusters?score=bogus", 400, "bad_request"},
		{"bad min", "GET", "/v1/clusters?min=abc", 400, "bad_request"},
		{"bad max", "GET", "/v1/clusters?max=x", 400, "bad_request"},
		{"zero limit", "GET", "/v1/clusters?limit=0", 400, "bad_request"},
		{"huge limit", "GET", "/v1/clusters?limit=99999", 400, "bad_request"},
		{"garbage cursor", "GET", "/v1/clusters?cursor=!!!", 400, "bad_cursor"},
		{"forged cursor", "GET", "/v1/clusters?cursor=Tk9QRQ", 400, "bad_cursor"},
		{"unknown cluster", "GET", "/v1/clusters/NOPE", 404, "not_found"},
		{"unknown record", "GET", "/v1/records/NOPE", 404, "not_found"},
		{"unknown path", "GET", "/v1/nope", 404, "not_found"},
		{"method not allowed", "POST", "/v1/clusters", 405, "method_not_allowed"},
		{"method not allowed legacy", "DELETE", "/v1/stats", 405, "method_not_allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("content-type = %q", ct)
			}
			var env obs.ErrorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if env.Error.Code != tc.wantErr {
				t.Fatalf("error code = %q, want %q", env.Error.Code, tc.wantErr)
			}
			if env.Error.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

func TestCursorPagination(t *testing.T) {
	srv := testServer(t)
	// Full result in one oversized page is the reference.
	var full []map[string]any
	code, fm := getData(t, srv.URL+"/v1/clusters?score=size&min=1&limit=1000", &full)
	if code != 200 {
		t.Fatalf("reference query code = %d", code)
	}
	if fm.Total != len(full) {
		t.Fatalf("reference total %d != items %d", fm.Total, len(full))
	}
	// Walk the same range in pages of 7.
	var walked []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > len(full) {
			t.Fatal("pagination does not terminate")
		}
		url := srv.URL + "/v1/clusters?score=size&min=1&limit=7"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		var items []map[string]any
		code, m := getData(t, url, &items)
		if code != 200 {
			t.Fatalf("page %d code = %d", pages, code)
		}
		if len(items) > 7 {
			t.Fatalf("page %d oversize: %d items", pages, len(items))
		}
		if m.Total != fm.Total {
			t.Fatalf("page %d total = %d, want %d", pages, m.Total, fm.Total)
		}
		for _, it := range items {
			walked = append(walked, it["ncid"].(string))
		}
		if m.NextCursor == "" {
			break
		}
		cursor = m.NextCursor
	}
	if len(walked) != len(full) {
		t.Fatalf("walked %d clusters, want %d", len(walked), len(full))
	}
	seen := map[string]bool{}
	for i, id := range walked {
		if seen[id] {
			t.Fatalf("duplicate %s across pages", id)
		}
		seen[id] = true
		if full[i]["ncid"] != id {
			t.Fatalf("order diverges at %d", i)
		}
	}
}

func TestScoreRangeBounds(t *testing.T) {
	srv := testServer(t)
	var suspects []map[string]any
	if code, _ := getData(t, srv.URL+"/v1/clusters?score=plausibility&max=0.99", &suspects); code != 200 {
		t.Fatalf("code = %d", code)
	}
	for _, s := range suspects {
		if p, ok := s["plausibility"].(float64); !ok || p > 0.99 {
			t.Errorf("out-of-range result: %v", s)
		}
	}
}

func TestLegacyPathsRedirect(t *testing.T) {
	srv := testServer(t)
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	for path, want := range map[string]string{
		"/stats":                       "/v1/stats",
		"/clusters?score=size&limit=3": "/v1/clusters?score=size&limit=3",
	} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMovedPermanently {
			t.Fatalf("%s: status = %d", path, resp.StatusCode)
		}
		if loc := resp.Header.Get("Location"); loc != want {
			t.Fatalf("%s: location = %q, want %q", path, loc, want)
		}
	}
	// A default client follows the alias transparently.
	var stats map[string]any
	if code, _ := getData(t, srv.URL+"/stats", &stats); code != 200 || stats["mode"] != "trimming" {
		t.Fatalf("followed legacy /stats: code %d, %v", code, stats)
	}
}

// TestLegacyRedirectMethodAndQuery is the regression test for the redirect
// bugs: the query string must survive the redirect, and non-GET methods
// must get 308 (which preserves the method) instead of 301 (which lets
// clients degrade to GET).
func TestLegacyRedirectMethodAndQuery(t *testing.T) {
	srv := testServer(t)
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}

	req, _ := http.NewRequest("POST", srv.URL+"/clusters?score=size&min=2", nil)
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPermanentRedirect {
		t.Fatalf("POST redirect status = %d, want %d", resp.StatusCode, http.StatusPermanentRedirect)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/clusters?score=size&min=2" {
		t.Fatalf("POST redirect location = %q", loc)
	}

	req, _ = http.NewRequest("HEAD", srv.URL+"/stats", nil)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMovedPermanently {
		t.Fatalf("HEAD redirect status = %d, want 301", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	var stats map[string]any
	getData(t, srv.URL+"/v1/stats", &stats)
	getData(t, srv.URL+"/v1/stats", &stats)
	var list []map[string]any
	getData(t, srv.URL+"/v1/clusters?limit=5", &list)

	var snap obs.Snapshot
	if code := getJSON(t, srv.URL+"/metrics", &snap); code != 200 {
		t.Fatalf("metrics code = %d", code)
	}
	byRoute := map[string]obs.RouteSnapshot{}
	for _, r := range snap.Routes {
		byRoute[r.Route] = r
	}
	if got := byRoute["GET /v1/stats"]; got.Requests != 2 || got.ByCode["200"] != 2 {
		t.Fatalf("stats route = %+v", got)
	}
	if got := byRoute["GET /v1/clusters"]; got.Requests != 1 {
		t.Fatalf("clusters route = %+v", got)
	}
	if got := byRoute["GET /v1/clusters"]; got.P99MS < got.P50MS || got.MaxMS <= 0 {
		t.Fatalf("quantiles look wrong: %+v", got)
	}

	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(text), `http_requests_total{route="GET /v1/stats",code="200"} 2`) {
		t.Fatalf("prometheus output misses stats counter:\n%s", text)
	}
	// The serving layer's counters surface in their own family: one swap
	// from New, one cache hit from the repeated stats request.
	for _, want := range []string{
		`serving_total{counter="swaps"} 1`,
		`serving_total{counter="cache_hits"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("prometheus output misses %q:\n%s", want, text)
		}
	}
}

// failingWriter is a client that went away after the headers.
type failingWriter struct{ http.ResponseWriter }

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestEnvelopeFailuresReachTheConfiguredLogger: a payload that does not
// encode is a clean 500, a body that does not write is dropped, and both are
// reported through the logger the server was given, not the process default.
func TestEnvelopeFailuresReachTheConfiguredLogger(t *testing.T) {
	var logged bytes.Buffer
	s := NewDeferred(WithLogger(slog.New(slog.NewTextHandler(&logged, nil))))

	rec := httptest.NewRecorder()
	s.writeEnvelope(rec, map[string]any{"bad": func() {}}, meta{}) // funcs cannot encode
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	var env obs.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "internal" {
		t.Fatalf("body = %q", rec.Body.String())
	}
	if !strings.Contains(logged.String(), "response encoding failed") {
		t.Errorf("encode failure not in the configured log: %q", logged.String())
	}

	logged.Reset()
	s.writeEnvelope(failingWriter{httptest.NewRecorder()}, json.RawMessage(`{}`), meta{Generation: 3})
	if !strings.Contains(logged.String(), "response write failed") || !strings.Contains(logged.String(), "connection reset") {
		t.Errorf("write failure not in the configured log: %q", logged.String())
	}
}

// TestEnvelopeSplice pins the spliced body to json.Encoder's rendering of
// the same pair, for a rendered payload, a value and an empty message.
func TestEnvelopeSplice(t *testing.T) {
	s := NewDeferred(WithLogger(testLogger()))
	total := 7
	type envelope struct {
		Data any  `json:"data"`
		Meta meta `json:"meta"`
	}
	for _, tc := range []struct {
		data any
		m    meta
	}{
		{json.RawMessage(`{"a":[1,2,{"b":"\u003c"}]}`), meta{Generation: 1}},
		{json.RawMessage(`[{"x":1}]`), meta{Generation: 12, Total: &total, NextCursor: "djE6QUIxMjM"}},
		{map[string]any{"z": 1, "a": "<&>"}, meta{Generation: 2}},
		{[]map[string]any{}, meta{Generation: 2, Total: new(int)}},
		{json.RawMessage(nil), meta{}},
		{nil, meta{Generation: 9}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(envelope{tc.data, tc.m}); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.writeEnvelope(rec, tc.data, tc.m)
		if rec.Code != 200 || rec.Body.String() != want.String() {
			t.Errorf("data %v: status %d, body %q, json.Encoder writes %q", tc.data, rec.Code, rec.Body.String(), want.String())
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(want.Len()) {
			t.Errorf("data %v: Content-Length %s, body has %d bytes", tc.data, cl, want.Len())
		}
	}
}

func TestContentLengthSet(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.ContentLength <= 0 {
		t.Fatalf("ContentLength = %d", resp.ContentLength)
	}
}
