package obs

import (
	"context"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"
)

// Track counts every request and its latency against the route label;
// routeOf maps a request to its label (e.g. the ServeMux pattern that will
// dispatch it) and defaults to "METHOD /path", which is fine only for
// low-cardinality path spaces. Place Track outermost (after logging) so
// shed and timed-out requests are observed too.
func Track(m *Metrics, routeOf func(*http.Request) string) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := wrapWriter(w)
			start := time.Now()
			next.ServeHTTP(sw, r)
			route := ""
			if routeOf != nil {
				route = routeOf(r)
			}
			if route == "" {
				route = r.Method + " " + r.URL.Path
			}
			m.Observe(route, sw.Status(), time.Since(start))
		})
	}
}

// Logging emits one structured line per request (method, path, status,
// bytes, duration, remote). A nil logger uses slog.Default().
func Logging(logger *slog.Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			l := logger
			if l == nil {
				l = slog.Default()
			}
			sw := wrapWriter(w)
			start := time.Now()
			next.ServeHTTP(sw, r)
			l.Info("request",
				"method", r.Method,
				"path", r.URL.RequestURI(),
				"status", sw.Status(),
				"bytes", sw.bytes,
				"durMs", float64(time.Since(start))/float64(time.Millisecond),
				"remote", r.RemoteAddr,
			)
		})
	}
}

// Recover converts handler panics into enveloped 500s, increments the
// "panics" counter and logs the stack. http.ErrAbortHandler is re-raised
// per net/http convention.
func Recover(m *Metrics) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := wrapWriter(w)
			defer func() {
				p := recover()
				if p == nil {
					return
				}
				if p == http.ErrAbortHandler {
					panic(p)
				}
				if m != nil {
					m.AddN("panics", 1)
				}
				slog.Default().Error("handler panic",
					"path", r.URL.Path, "panic", p, "stack", string(debug.Stack()))
				if !sw.wrote {
					WriteError(sw, http.StatusInternalServerError, "internal", "internal server error")
				}
			}()
			next.ServeHTTP(sw, r)
		})
	}
}

// Timeout attaches a deadline to the request context. Handlers are expected
// to honor r.Context(); when the handler returns with the deadline exceeded
// and nothing written, the middleware answers 504 and increments the
// "timeouts" counter. d <= 0 disables the deadline.
func Timeout(d time.Duration, m *Metrics) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if d <= 0 {
				next.ServeHTTP(w, r)
				return
			}
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			sw := wrapWriter(w)
			next.ServeHTTP(sw, r.WithContext(ctx))
			if ctx.Err() != nil && !sw.wrote {
				if m != nil {
					m.AddN("timeouts", 1)
				}
				WriteError(sw, http.StatusGatewayTimeout, "timeout", "request exceeded the server deadline")
			}
		})
	}
}

// InflightLimit caps concurrently served requests at n; excess requests are
// shed immediately with an enveloped 503 and the "shed" counter. It also
// maintains the in-flight gauge. n <= 0 disables the cap (the gauge is
// still maintained).
func InflightLimit(n int, m *Metrics) Middleware {
	var sem chan struct{}
	if n > 0 {
		sem = make(chan struct{}, n)
	}
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if sem != nil {
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				default:
					if m != nil {
						m.AddN("shed", 1)
					}
					WriteError(w, http.StatusServiceUnavailable, "overloaded", "server is at its in-flight request limit")
					return
				}
			}
			if m != nil {
				m.inFlight.Add(1)
				defer m.inFlight.Add(-1)
			}
			next.ServeHTTP(w, r)
		})
	}
}
