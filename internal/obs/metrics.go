package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/histogram"
)

// Latency histograms bucket milliseconds over [0, latHiMS) at latBins
// resolution (0.1 ms per bin); slower requests are clamped into the last
// bin, with the exact maximum tracked separately.
const (
	latHiMS = 100.0
	latBins = 1000
)

// Metrics is the per-route request registry the middleware reports into.
// All methods are safe for concurrent use.
type Metrics struct {
	start    time.Time
	inFlight atomic.Int64

	mu       sync.Mutex
	routes   map[string]*routeStats
	counters map[string]int64
}

type routeStats struct {
	requests int64
	byCode   map[int]int64
	lat      histogram.Histogram
	sumMS    float64
	maxMS    float64
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		routes:   map[string]*routeStats{},
		counters: map[string]int64{},
	}
}

// Observe records one finished request on a route.
func (m *Metrics) Observe(route string, status int, d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	m.mu.Lock()
	defer m.mu.Unlock()
	rs, ok := m.routes[route]
	if !ok {
		rs = &routeStats{byCode: map[int]int64{}, lat: histogram.NewOver(0, latHiMS, latBins)}
		m.routes[route] = rs
	}
	rs.requests++
	rs.byCode[status]++
	rs.lat.Add(ms)
	rs.sumMS += ms
	if ms > rs.maxMS {
		rs.maxMS = ms
	}
}

// AddN adds n to a named event counter, zero included. The middleware
// reports its events ("panics", "timeouts", "shed") here, and through it
// Metrics satisfies counter.Sink, the seam every pipeline layer reports its
// counters into, so GET /metrics covers ingest, scoring, persistence and
// serving alongside the requests.
func (m *Metrics) AddN(name string, n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counters[name] += n
}

// Counter reads a named event counter.
func (m *Metrics) Counter(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// RouteSnapshot is the exported per-route view: counts by status code plus
// latency quantiles estimated from the histogram (0.1 ms resolution, capped
// at the histogram range; MaxMS is exact).
type RouteSnapshot struct {
	Route    string           `json:"route"`
	Requests int64            `json:"requests"`
	ByCode   map[string]int64 `json:"byCode"`
	P50MS    float64          `json:"p50ms"`
	P90MS    float64          `json:"p90ms"`
	P99MS    float64          `json:"p99ms"`
	MeanMS   float64          `json:"meanMs"`
	MaxMS    float64          `json:"maxMs"`
}

// Snapshot is the exported whole-registry view rendered by the /metrics
// handler.
type Snapshot struct {
	UptimeSeconds float64          `json:"uptimeSeconds"`
	InFlight      int64            `json:"inFlight"`
	Counters      map[string]int64 `json:"counters"`
	Routes        []RouteSnapshot  `json:"routes"`
}

// Snapshot captures the registry, with routes sorted by name.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := Snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		InFlight:      m.inFlight.Load(),
		Counters:      map[string]int64{},
	}
	for k, v := range m.counters {
		snap.Counters[k] = v
	}
	for route, rs := range m.routes {
		r := RouteSnapshot{
			Route:    route,
			Requests: rs.requests,
			ByCode:   map[string]int64{},
			P50MS:    rs.lat.Quantile(0.50),
			P90MS:    rs.lat.Quantile(0.90),
			P99MS:    rs.lat.Quantile(0.99),
			MaxMS:    rs.maxMS,
		}
		if rs.requests > 0 {
			r.MeanMS = rs.sumMS / float64(rs.requests)
		}
		for code, n := range rs.byCode {
			r.ByCode[strconv.Itoa(code)] = n
		}
		snap.Routes = append(snap.Routes, r)
	}
	sort.Slice(snap.Routes, func(i, j int) bool { return snap.Routes[i].Route < snap.Routes[j].Route })
	return snap
}

// Handler serves the registry at GET /metrics: JSON by default, Prometheus
// text exposition with ?format=prometheus (or an Accept header preferring
// text/plain).
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prometheus" ||
			strings.HasPrefix(r.Header.Get("Accept"), "text/plain") {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.Write([]byte(m.PrometheusText()))
			return
		}
		body, err := json.MarshalIndent(m.Snapshot(), "", "  ")
		if err != nil {
			WriteError(w, http.StatusInternalServerError, "internal", "metrics encoding failed")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	})
}

// counterFamilies routes the layers' counters (AddN) to their Prometheus
// families by name prefix, in exposition order.
var counterFamilies = []struct{ prefix, family, help string }{
	{"ingest_", "ingest_pipeline_total", "Parallel snapshot-ingest pipeline counters."},
	{"delta_", "delta_pipeline_total", "Incremental snapshot application counters (applies, rows decoded/unchanged, records and objects added, clusters touched/dirty/rescored)."},
	{"score_", "score_pipeline_total", "Parallel pair-scoring engine counters (pairs scored, values preprocessed, memo hits/misses/skips)."},
	{"blocking_", "blocking_pipeline_total", "Candidate-generation layer counters (runs, records keyed, per-pass pair emissions, unique candidates)."},
	{"blocking_stream_", "blocking_stream_total", "Streamed candidate-emission counters (batches emitted, pairs streamed, peak batch backlog)."},
	{"dedup_stream_", "dedup_stream_total", "Streaming scoring-consumer counters (batches consumed, pairs scored from the stream)."},
	{"docstore_", "docstore_pipeline_total", "Document store counters (segments, bytes and documents saved/loaded, segments reused or served from the segment cache)."},
	{"serving_", "serving_total", "Serving-snapshot counters (swaps, response-cache hits/misses/evictions)."},
	{"provenance_", "provenance_total", "Corpus provenance counters (records stamped, chain links/resets, leaves hashed/reused, records served)."},
}

// PrometheusText renders the registry in the Prometheus text exposition
// format (counters, a summary per route, and the in-flight gauge).
func (m *Metrics) PrometheusText() string {
	snap := m.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP http_requests_in_flight Requests currently being served.\n")
	fmt.Fprintf(&b, "# TYPE http_requests_in_flight gauge\n")
	fmt.Fprintf(&b, "http_requests_in_flight %d\n", snap.InFlight)

	// A counter belongs to the family with the longest prefix of its name
	// (blocking_stream_ before blocking_); one no family claims is a
	// middleware event. Families print in table order, names sorted.
	names := make([][]string, len(counterFamilies))
	var eventNames []string
	for name := range snap.Counters {
		best := -1
		for i, f := range counterFamilies {
			if strings.HasPrefix(name, f.prefix) && (best < 0 || len(f.prefix) > len(counterFamilies[best].prefix)) {
				best = i
			}
		}
		if best < 0 {
			eventNames = append(eventNames, name)
		} else {
			names[best] = append(names[best], name)
		}
	}
	sort.Strings(eventNames)
	fmt.Fprintf(&b, "# HELP http_server_events_total Middleware events (panics, timeouts, shed).\n")
	fmt.Fprintf(&b, "# TYPE http_server_events_total counter\n")
	for _, name := range eventNames {
		fmt.Fprintf(&b, "http_server_events_total{event=%q} %d\n", name, snap.Counters[name])
	}
	for i, f := range counterFamilies {
		if len(names[i]) == 0 {
			continue
		}
		sort.Strings(names[i])
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", f.family, f.help, f.family)
		for _, name := range names[i] {
			fmt.Fprintf(&b, "%s{counter=%q} %d\n", f.family, strings.TrimPrefix(name, f.prefix), snap.Counters[name])
		}
	}

	fmt.Fprintf(&b, "# HELP http_requests_total Requests served, by route and status code.\n")
	fmt.Fprintf(&b, "# TYPE http_requests_total counter\n")
	for _, r := range snap.Routes {
		codes := make([]string, 0, len(r.ByCode))
		for code := range r.ByCode {
			codes = append(codes, code)
		}
		sort.Strings(codes)
		for _, code := range codes {
			fmt.Fprintf(&b, "http_requests_total{route=%q,code=%q} %d\n", r.Route, code, r.ByCode[code])
		}
	}

	fmt.Fprintf(&b, "# HELP http_request_duration_seconds Request latency summary, by route.\n")
	fmt.Fprintf(&b, "# TYPE http_request_duration_seconds summary\n")
	for _, r := range snap.Routes {
		for _, q := range []struct {
			q  string
			ms float64
		}{{"0.5", r.P50MS}, {"0.9", r.P90MS}, {"0.99", r.P99MS}} {
			fmt.Fprintf(&b, "http_request_duration_seconds{route=%q,quantile=%q} %g\n", r.Route, q.q, q.ms/1000)
		}
		fmt.Fprintf(&b, "http_request_duration_seconds_sum{route=%q} %g\n", r.Route, r.MeanMS*float64(r.Requests)/1000)
		fmt.Fprintf(&b, "http_request_duration_seconds_count{route=%q} %d\n", r.Route, r.Requests)
	}
	return b.String()
}
