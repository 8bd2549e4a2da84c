// Package loadgen is a closed-loop, in-process HTTP load generator for the
// serving benchmarks: N workers issue requests back-to-back against an
// http.Handler (no sockets, no client pools — the handler's own cost is
// what is measured), following a deterministic weighted round-robin
// schedule over a target mix. Per-request latencies are recorded
// worker-locally and merged into exact (sorted, not estimated) quantiles,
// overall and per route.
//
// The schedule is computed once up front with smooth weighted round-robin,
// so two runs over the same mix and request count issue the identical
// request sequence — the only nondeterminism left is the machine itself.
package loadgen

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"
)

// Target is one leg of the workload mix.
type Target struct {
	// Route labels the leg in the result, e.g. "GET /v1/records/{ncid}".
	Route string
	// Paths are the concrete request paths the leg cycles through.
	Paths []string
	// Weight is the leg's relative frequency in the mix (>= 1).
	Weight int
}

// Config tunes a run; zero fields use the defaults.
type Config struct {
	// Workers is the number of closed-loop workers (default 8).
	Workers int
	// Requests is the total timed request count across workers
	// (default 4000).
	Requests int
}

// RouteStats is the per-leg slice of a Result.
type RouteStats struct {
	Route    string  `json:"route"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	P50MS    float64 `json:"p50ms"`
	P95MS    float64 `json:"p95ms"`
	P99MS    float64 `json:"p99ms"`
	MaxMS    float64 `json:"maxms"`
}

// Result is one load run's measurement.
type Result struct {
	Workers   int          `json:"workers"`
	Requests  int          `json:"requests"`
	Errors    int          `json:"errors"`
	Seconds   float64      `json:"seconds"`
	ReqPerSec float64      `json:"reqPerSec"`
	P50MS     float64      `json:"p50ms"`
	P95MS     float64      `json:"p95ms"`
	P99MS     float64      `json:"p99ms"`
	MaxMS     float64      `json:"maxms"`
	Routes    []RouteStats `json:"routes"`
}

// schedule expands a mix into the deterministic per-request (target, path)
// sequence via smooth weighted round-robin: each step every target gains
// its weight in credit and the most-credited target is picked, so weights
// interleave instead of clumping.
func schedule(targets []Target, requests int) []scheduled {
	credit := make([]int, len(targets))
	cursor := make([]int, len(targets))
	var total int
	for _, t := range targets {
		total += t.Weight
	}
	out := make([]scheduled, 0, requests)
	for i := 0; i < requests; i++ {
		best := 0
		for j := range targets {
			credit[j] += targets[j].Weight
			if credit[j] > credit[best] {
				best = j
			}
		}
		credit[best] -= total
		paths := targets[best].Paths
		out = append(out, scheduled{target: best, path: paths[cursor[best]%len(paths)]})
		cursor[best]++
	}
	return out
}

// scheduled is one planned request.
type scheduled struct {
	target int
	path   string
}

// nullWriter sinks a response, keeping only what the generator needs. It is
// a fresh tiny struct per request, so workers never share response state.
type nullWriter struct {
	hdr    http.Header
	status int
}

func (w *nullWriter) Header() http.Header { return w.hdr }

func (w *nullWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}

func (w *nullWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

// Run drives the handler with the mix and returns the measurement. Before
// the clock starts, every distinct path is issued once as untimed warmup,
// so one-time costs (lazy inits, first-touch page faults) don't skew the
// tail and cached configurations are measured in steady state.
func Run(h http.Handler, targets []Target, cfg Config) Result {
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8
	}
	requests := cfg.Requests
	if requests <= 0 {
		requests = 4000
	}
	plan := schedule(targets, requests)

	for _, t := range targets {
		for _, p := range t.Paths {
			w := &nullWriter{hdr: make(http.Header)}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, p, nil))
		}
	}

	type sample struct {
		target int
		ms     float64
		err    bool
	}
	perWorker := make([][]sample, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			samples := make([]sample, 0, requests/workers+1)
			for i := w; i < len(plan); i += workers {
				req := httptest.NewRequest(http.MethodGet, plan[i].path, nil)
				rw := &nullWriter{hdr: make(http.Header)}
				t0 := time.Now()
				h.ServeHTTP(rw, req)
				samples = append(samples, sample{
					target: plan[i].target,
					ms:     float64(time.Since(t0)) / float64(time.Millisecond),
					err:    rw.status >= 400,
				})
			}
			perWorker[w] = samples
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	all := make([]float64, 0, requests)
	perTarget := make([][]float64, len(targets))
	res := Result{Workers: workers, Requests: requests, Seconds: elapsed}
	routeErrs := make([]int, len(targets))
	for _, samples := range perWorker {
		for _, s := range samples {
			all = append(all, s.ms)
			perTarget[s.target] = append(perTarget[s.target], s.ms)
			if s.err {
				res.Errors++
				routeErrs[s.target]++
			}
		}
	}
	if elapsed > 0 {
		res.ReqPerSec = float64(len(all)) / elapsed
	}
	res.P50MS, res.P95MS, res.P99MS, res.MaxMS = quantiles(all)
	for i, t := range targets {
		rs := RouteStats{Route: t.Route, Requests: len(perTarget[i]), Errors: routeErrs[i]}
		rs.P50MS, rs.P95MS, rs.P99MS, rs.MaxMS = quantiles(perTarget[i])
		res.Routes = append(res.Routes, rs)
	}
	return res
}

// quantiles returns exact p50/p95/p99/max over the samples (sorted copy;
// the q-quantile is the ceil(q·n)-th smallest).
func quantiles(ms []float64) (p50, p95, p99, max float64) {
	if len(ms) == 0 {
		return 0, 0, 0, 0
	}
	s := make([]float64, len(ms))
	copy(s, ms)
	sort.Float64s(s)
	at := func(q float64) float64 {
		i := int(float64(q*float64(len(s)))+0.999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return s[i]
	}
	return at(0.50), at(0.95), at(0.99), s[len(s)-1]
}
