package obs

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestChainOrder(t *testing.T) {
	var order []string
	mw := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		order = append(order, "handler")
	}), mw("a"), nil, mw("b"))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if got := strings.Join(order, ","); got != "a,b,handler" {
		t.Fatalf("order = %s", got)
	}
}

func TestRecoverPanicBecomes500WithMetric(t *testing.T) {
	m := NewMetrics()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}), Track(m, nil), Recover(m))
	rec := httptest.NewRecorder()
	slog.SetDefault(quietLogger())
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/explode", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "internal" {
		t.Fatalf("body = %q (err %v)", rec.Body.String(), err)
	}
	if m.Counter("panics") != 1 {
		t.Fatalf("panics counter = %d", m.Counter("panics"))
	}
	snap := m.Snapshot()
	if len(snap.Routes) != 1 || snap.Routes[0].ByCode["500"] != 1 {
		t.Fatalf("snapshot misses the 500: %+v", snap.Routes)
	}
}

func TestTimeoutFires(t *testing.T) {
	m := NewMetrics()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A well-behaved handler: waits on its context and gives up without
		// writing.
		<-r.Context().Done()
	}), Timeout(5*time.Millisecond, m))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/slow", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "timeout" {
		t.Fatalf("body = %q", rec.Body.String())
	}
	if m.Counter("timeouts") != 1 {
		t.Fatalf("timeouts counter = %d", m.Counter("timeouts"))
	}
	// A handler that wrote before the deadline is left alone.
	h = Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		<-r.Context().Done()
	}), Timeout(5*time.Millisecond, m))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/slow", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("late-write status = %d", rec.Code)
	}
}

func TestInflightLimitSheds(t *testing.T) {
	m := NewMetrics()
	occupied := make(chan struct{})
	release := make(chan struct{})
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(occupied)
		<-release
	}), InflightLimit(1, m))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/hold", nil))
	}()
	<-occupied
	if got := m.inFlight.Load(); got != 1 {
		t.Fatalf("in-flight gauge = %d", got)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/hold", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d", rec.Code)
	}
	var env ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != "overloaded" {
		t.Fatalf("shed body = %q", rec.Body.String())
	}
	if m.Counter("shed") != 1 {
		t.Fatalf("shed counter = %d", m.Counter("shed"))
	}
	close(release)
	wg.Wait()
	if got := m.inFlight.Load(); got != 0 {
		t.Fatalf("in-flight gauge after drain = %d", got)
	}
}

func TestTrackAndMetricsHandler(t *testing.T) {
	m := NewMetrics()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
		w.Write([]byte("ok"))
	}), Logging(quietLogger()), Track(m, func(r *http.Request) string { return "GET /v1/thing" }))
	for i := 0; i < 5; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/thing/123", nil))
	}

	snap := m.Snapshot()
	if len(snap.Routes) != 1 {
		t.Fatalf("routes = %+v", snap.Routes)
	}
	r := snap.Routes[0]
	if r.Route != "GET /v1/thing" || r.Requests != 5 || r.ByCode["200"] != 5 {
		t.Fatalf("route snapshot = %+v", r)
	}
	if r.P50MS <= 0 || r.P99MS < r.P50MS || r.MaxMS < 1 {
		t.Fatalf("latency quantiles look wrong: %+v", r)
	}

	// JSON exposition.
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var got Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Routes) != 1 || got.Routes[0].Requests != 5 {
		t.Fatalf("json snapshot = %+v", got)
	}

	// Prometheus exposition.
	rec = httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	text := rec.Body.String()
	for _, want := range []string{
		`http_requests_total{route="GET /v1/thing",code="200"} 5`,
		`http_request_duration_seconds{route="GET /v1/thing",quantile="0.99"}`,
		`http_request_duration_seconds_count{route="GET /v1/thing"} 5`,
		"# TYPE http_requests_in_flight gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output misses %q:\n%s", want, text)
		}
	}
}
