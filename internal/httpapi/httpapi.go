// Package httpapi exposes a stored test dataset over a versioned, read-only
// HTTP/JSON API — the stand-in for the MongoDB Compass exploration the
// paper relies on for "exploring, generating, adjusting and using the test
// data" (§5), redesigned for high-QPS census-style lookup: every request is
// served from an immutable, generation-stamped serving snapshot
// (internal/serving) loaded with one atomic pointer read, so a corpus
// reload (Publish) swaps the whole read state without locking or tearing a
// single response. All resources live under /v1 (unversioned paths answer
// 301, non-GET 308, to their /v1 twin); GET /metrics exposes the per-route
// observability registry.
//
// Conventions: every /v1 response is the unified {data, meta, error}
// envelope — data carries the payload (an array for list endpoints), meta
// carries the snapshot generation plus pagination (total, nextCursor), and
// errors are {"error": {"code", "message"}}. Responses carry the snapshot
// generation as an X-Dataset-Generation header and a strong ETag, so
// clients can detect which corpus version they benchmarked against and
// revalidate with If-None-Match (304 until the next swap). Hot aggregate
// endpoints are additionally served from a bounded LRU response cache
// keyed on (generation, resource) — a swap implicitly invalidates it.
package httpapi

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serving"
)

// Config tunes the middleware around the handlers; the zero value of a
// field means "use the default below".
type Config struct {
	Timeout     time.Duration // per-request deadline (default 10s; <0 disables)
	MaxInflight int           // in-flight request cap (default 256; <0 disables)
	Logger      *slog.Logger  // request logger (default slog.Default())
	CacheSize   int           // response-cache entries (default 1024; <0 disables)
}

// Option mutates the Config inside NewDeferred.
type Option func(*Config)

// WithTimeout sets the per-request deadline; d < 0 disables it.
func WithTimeout(d time.Duration) Option { return func(c *Config) { c.Timeout = d } }

// WithMaxInflight caps concurrently served requests; n < 0 disables the cap.
func WithMaxInflight(n int) Option { return func(c *Config) { c.MaxInflight = n } }

// WithLogger sets the structured logger of the request log and of the
// server's own failures (a response that does not encode or write).
func WithLogger(l *slog.Logger) Option { return func(c *Config) { c.Logger = l } }

// WithResponseCache bounds the LRU response cache to n entries; n < 0
// disables caching. The default is 1024 entries.
func WithResponseCache(n int) Option { return func(c *Config) { c.CacheSize = n } }

// Server serves dataset snapshots published through Publish.
type Server struct {
	mux     *http.ServeMux
	metrics *obs.Metrics
	handler http.Handler
	source  *serving.Source
	cache   *serving.ResponseCache
	logger  *slog.Logger
}

// route is one registered endpoint, relative to the /v1 prefix. Resources
// contribute []route slices (see clusters.go, meta.go, records.go,
// health.go) so growing the API means adding a routes function, not editing
// one constructor. Cacheable routes are wrapped with the response cache.
type route struct {
	method    string
	pattern   string // resource-relative, e.g. "/clusters/{ncid}"
	handler   http.HandlerFunc
	cacheable bool
}

// NewDeferred builds a server with no snapshot loaded yet: every data
// endpoint (and /v1/healthz) answers 503 not_ready until the first Publish
// completes, while /v1/livez and /metrics are live immediately. This lets
// a process bind its listener before the corpus load and expose honest
// readiness to orchestrators.
func NewDeferred(opts ...Option) *Server {
	cfg := Config{Timeout: 10 * time.Second, MaxInflight: 256, CacheSize: 1024}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Timeout < 0 {
		cfg.Timeout = 0
	}
	if cfg.MaxInflight < 0 {
		cfg.MaxInflight = 0
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}

	s := &Server{
		mux:     http.NewServeMux(),
		metrics: obs.NewMetrics(),
		logger:  cfg.Logger,
	}
	s.source = serving.NewSource(s.metrics)
	if cfg.CacheSize >= 0 {
		if cfg.CacheSize == 0 {
			cfg.CacheSize = 1024
		}
		s.cache = serving.NewResponseCache(cfg.CacheSize, s.metrics)
	}
	s.register(s.metaRoutes())
	s.register(s.provenanceRoutes())
	s.register(s.clusterRoutes())
	s.register(s.summaryRoutes())
	s.register(s.recordRoutes())
	s.register(s.healthRoutes())
	s.mux.Handle("GET /metrics", s.metrics.Handler())

	s.handler = obs.Chain(http.HandlerFunc(s.dispatch),
		obs.Logging(cfg.Logger),
		obs.Track(s.metrics, s.routeLabel),
		obs.InflightLimit(cfg.MaxInflight, s.metrics),
		obs.Timeout(cfg.Timeout, s.metrics),
		obs.Recover(s.metrics),
	)
	return s
}

// Publish freezes the dataset into a new serving snapshot — one pass over
// its clusters that renders the record views and fills the summary rows and
// score tables (serving.Build) — and swaps it in atomically, returning the
// new generation. In-flight requests keep serving the previous generation
// untouched; requests arriving after the swap see only the new one. Publish
// is safe to call while serving (reload on SIGHUP); the dataset must not be
// mutated afterwards: the snapshot renders cluster documents from it.
func (s *Server) Publish(ds *core.Dataset) uint64 {
	return s.PublishWithProvenance(ds, nil)
}

// PublishWithProvenance is Publish carrying the raw provenance record of the
// store the dataset was loaded from; /v1/provenance serves it for this
// generation, compacted. A nil record publishes a generation without
// provenance (the endpoint answers 404), and so does one that is not JSON.
func (s *Server) PublishWithProvenance(ds *core.Dataset, record json.RawMessage) uint64 {
	if record != nil {
		// Every payload a snapshot holds is spliced into the envelope as it
		// is, so the record takes the form json gives an embedded message —
		// compact, HTML-safe — here, once.
		compact, err := json.Marshal(record)
		if err != nil {
			s.logger.Error("httpapi: provenance record is not JSON, serving none", "err", err)
			compact = nil
		}
		record = compact
	}
	snap := serving.Build(ds, serving.BuildOpts{Provenance: record})
	return s.source.Swap(snap)
}

// Generation returns the currently served snapshot generation (0 before
// the first Publish).
func (s *Server) Generation() uint64 { return s.source.Generation() }

// register mounts the routes under /v1 and their unversioned twins as
// redirects (one-release compatibility alias; 301 for GET/HEAD, 308
// otherwise so non-GET methods and bodies survive the redirect).
func (s *Server) register(routes []route) {
	for _, rt := range routes {
		h := rt.handler
		if rt.cacheable && s.cache != nil {
			h = s.cached(h)
		}
		s.mux.HandleFunc(rt.method+" /v1"+rt.pattern, h)
		s.mux.HandleFunc(rt.pattern, redirectToV1)
	}
}

// redirectToV1 redirects an unversioned path to its /v1 twin, query string
// preserved: 301 for GET and HEAD, 308 (Permanent Redirect) for every
// other method, which obliges clients to replay the method and body
// instead of degrading to GET.
func redirectToV1(w http.ResponseWriter, r *http.Request) {
	target := "/v1" + r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		target += "?" + q
	}
	code := http.StatusMovedPermanently
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		code = http.StatusPermanentRedirect
	}
	http.Redirect(w, r, target, code)
}

// ServeHTTP implements http.Handler through the middleware chain.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Metrics exposes the observability registry (for benchmarks and tests).
func (s *Server) Metrics() *obs.Metrics { return s.metrics }

// routeLabel labels requests for metrics with the ServeMux pattern that
// dispatches them, keeping the label space bounded.
func (s *Server) routeLabel(r *http.Request) string {
	if _, pattern := s.mux.Handler(r); pattern != "" {
		return pattern
	}
	return "unmatched"
}

// dispatch serves the mux behind a writer that rewrites its plain-text
// error pages (404 for unknown paths, 405 with Allow for known ones) into
// the JSON error envelope.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(&jsonErrorWriter{ResponseWriter: w}, r)
}

// snapCtxKey carries the request's pinned snapshot through the context, so
// the cache wrapper and the handler agree on one generation even if a swap
// lands mid-request.
type snapCtxKey struct{}

// withSnapshot pins a snapshot to the request.
func withSnapshot(r *http.Request, snap *serving.Snapshot) *http.Request {
	return r.WithContext(context.WithValue(r.Context(), snapCtxKey{}, snap))
}

// requireSnapshot resolves the snapshot this request is served from — the
// pinned one when the cache wrapper ran, otherwise the current one, loaded
// exactly once so the ETag, the generation header and the body can never
// disagree. Before the first Publish it answers 503 not_ready and returns
// nil.
func (s *Server) requireSnapshot(w http.ResponseWriter, r *http.Request) *serving.Snapshot {
	snap, _ := r.Context().Value(snapCtxKey{}).(*serving.Snapshot)
	if snap == nil {
		snap = s.source.Current()
	}
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, "not_ready", "no serving snapshot loaded yet")
		return nil
	}
	return snap
}

// meta is the metadata half of the unified {data, meta} success envelope of
// every /v1 endpoint: the snapshot generation on every response, plus the
// pagination fields on list endpoints.
type meta struct {
	Generation uint64 `json:"generation"`
	Total      *int   `json:"total,omitempty"`
	NextCursor string `json:"nextCursor,omitempty"`
}

// headerGeneration names the corpus-version response header.
const headerGeneration = "X-Dataset-Generation"

// etagFor renders the strong entity tag of a generation. Data only changes
// on swap, so the generation alone identifies a resource's representation.
func etagFor(gen uint64) string { return `"g` + strconv.FormatUint(gen, 10) + `"` }

// etagMatches reports whether an If-None-Match header matches the ETag.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "W/"))
		if part == etag || part == "*" {
			return true
		}
	}
	return false
}

// writeData renders the success envelope from one snapshot: generation
// headers, strong ETag, If-None-Match revalidation (304), then the
// {data, meta} body. listMeta may be nil for object endpoints. A
// json.RawMessage is a payload some snapshot already rendered; see
// writeEnvelope.
func (s *Server) writeData(w http.ResponseWriter, r *http.Request, snap *serving.Snapshot, data any, listMeta *meta) {
	m := meta{}
	if listMeta != nil {
		m = *listMeta
	}
	m.Generation = snap.Generation()
	etag := etagFor(m.Generation)
	w.Header().Set("ETag", etag)
	w.Header().Set(headerGeneration, strconv.FormatUint(m.Generation, 10))
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.writeEnvelope(w, data, m)
}

// jsonErrorWriter intercepts non-JSON error responses (the ServeMux's own
// 404/405 pages) and replaces their bodies with the canonical envelope.
// Handler-written errors pass through untouched: they are JSON already.
type jsonErrorWriter struct {
	http.ResponseWriter
	wrote    bool
	replaced bool
}

func (w *jsonErrorWriter) WriteHeader(code int) {
	if w.wrote {
		return
	}
	w.wrote = true
	ct := w.Header().Get("Content-Type")
	if code >= 400 && !strings.HasPrefix(ct, "application/json") {
		w.replaced = true
		codeName, msg := "error", http.StatusText(code)
		switch code {
		case http.StatusNotFound:
			codeName, msg = "not_found", "no such resource"
		case http.StatusMethodNotAllowed:
			codeName, msg = "method_not_allowed", "method not allowed on this resource"
		}
		w.Header().Del("X-Content-Type-Options")
		obs.WriteError(w.ResponseWriter, code, codeName, msg)
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *jsonErrorWriter) Write(b []byte) (int, error) {
	if w.replaced {
		return len(b), nil // swallow the mux's text body
	}
	if !w.wrote {
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}

// writeEnvelope writes the 200 response {"data":…,"meta":…} — the bytes
// json.Encoder writes for that pair. The body is complete before the first
// byte leaves, so an encoding failure surfaces as a clean 500 (instead of a
// silently truncated 200) and Content-Length is always set. A
// json.RawMessage is spliced in as it is: snapshots hold their payloads in
// the form json embeds a message in (compact, HTML-safe), so having json
// re-scan and compact one per request would only find that out again.
func (s *Server) writeEnvelope(w http.ResponseWriter, data any, m meta) {
	metaJSON, err := json.Marshal(m)
	payload, rendered := data.(json.RawMessage)
	if err == nil && !rendered {
		payload, err = json.Marshal(data)
	}
	if err != nil {
		s.logger.Error("httpapi: response encoding failed", "err", err)
		obs.WriteError(w, http.StatusInternalServerError, "internal", "response encoding failed")
		return
	}
	if len(payload) == 0 {
		payload = json.RawMessage("null")
	}
	body := make([]byte, 0, len(`{"data":,"meta":}`)+len(payload)+len(metaJSON)+1)
	body = append(body, `{"data":`...)
	body = append(body, payload...)
	body = append(body, `,"meta":`...)
	body = append(body, metaJSON...)
	body = append(body, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		// Headers are gone; the client likely went away. Log and move on.
		s.logger.Error("httpapi: response write failed", "err", err)
	}
}

// writeError renders the canonical error envelope.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	obs.WriteError(w, status, code, msg)
}

// cursorPrefix versions the cursor encoding so stale cursors from future
// incompatible encodings fail loudly instead of resolving wrongly.
const cursorPrefix = "v1:"

// encodeCursor renders an opaque page cursor from the last document id of a
// page; "" stays "".
func encodeCursor(afterID string) string {
	if afterID == "" {
		return ""
	}
	return base64.RawURLEncoding.EncodeToString([]byte(cursorPrefix + afterID))
}

// decodeCursor resolves an opaque cursor back to a document id; it reports
// malformed input so handlers can 400.
func decodeCursor(cursor string) (string, bool) {
	if cursor == "" {
		return "", true
	}
	raw, err := base64.RawURLEncoding.DecodeString(cursor)
	if err != nil || !strings.HasPrefix(string(raw), cursorPrefix) {
		return "", false
	}
	id := strings.TrimPrefix(string(raw), cursorPrefix)
	return id, id != ""
}
