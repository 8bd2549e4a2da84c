// Package obs is the observability-and-robustness layer of the serving and
// ingest infrastructure the paper runs on managed services (§5): composable
// net/http middleware (structured request logging, panic recovery,
// per-request timeouts, an in-flight limiter and per-route metrics) plus
// the Metrics registry they report into — which is also the counter.Sink
// the pipeline layers (ingest, delta, scoring, blocking, docstore,
// provenance, serving) report their counters into — exposed at GET /metrics
// in JSON and Prometheus text formats. Which Prometheus family a counter
// name belongs to is decided here, in one table, not by the layers.
//
// The middleware is deliberately independent of the API it wraps; the one
// shared convention is the error envelope — {"error": {"code", "message"}}
// — which WriteError renders and which the httpapi handlers reuse so
// middleware-generated errors (503 shed, 504 timeout, 500 panic) are
// indistinguishable in shape from handler-generated ones.
package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Middleware wraps an http.Handler with one cross-cutting concern.
type Middleware func(http.Handler) http.Handler

// Chain applies the middlewares to h with the first argument outermost:
// Chain(h, a, b, c) serves a(b(c(h))).
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		if mws[i] != nil {
			h = mws[i](h)
		}
	}
	return h
}

// ErrorBody is the payload of the canonical error envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorEnvelope is the canonical error response shape of the serving stack.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// WriteError renders the canonical error envelope with the given status,
// buffered so Content-Length is set. It is safe to call with a nil-metric
// middleware or directly from handlers.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	body, err := json.Marshal(ErrorEnvelope{Error: ErrorBody{Code: code, Message: msg}})
	if err != nil {
		// Unreachable for this struct; degrade to a plain status.
		w.WriteHeader(status)
		return
	}
	body = append(body, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// statusWriter records the status code and body size a handler produced.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
	wrote  bool
}

func wrapWriter(w http.ResponseWriter) *statusWriter {
	if sw, ok := w.(*statusWriter); ok {
		return sw // already wrapped by an outer middleware
	}
	return &statusWriter{ResponseWriter: w}
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Status returns the recorded status, defaulting to 200 before any write.
func (w *statusWriter) Status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.status
}
