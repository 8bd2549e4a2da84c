package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"
)

// metricDef declares one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change counts as
// a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics a user of the pipeline would see. BENCHMARK.json
// carries the same table (a test keeps the two equal). Each bound is about
// three times the widest spread the metric showed across ten seeds on the
// 2-vCPU sandbox, capped at the 25 % a bound may be (README.md, "Bounds").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lap_s", "s", "lower", 0.25},
	{"build_rows_per_s", "rows/s", "higher", 0.25},
	{"cold_start_s", "s", "lower", 0.25},
	{"refresh_s", "s", "lower", 0.25},
	{"hot_req_per_s", "req/s", "higher", 0.20},
	{"wide_req_per_s", "req/s", "higher", 0.25},
	{"dedup_pairs_per_s", "pairs/s", "higher", 0.25},
	{"peak_heap_mb", "MB", "lower", 0.15},
	{"alloc_mb", "MB", "lower", 0.08},
	{"store_bytes_per_input_byte", "ratio", "lower", 0.10},
}

// perLayer lists the single-layer metrics of a traced run; the layer is the
// module name before the dot. README.md says which end-to-end metric each one
// should move, on which workload.
var perLayer = []metricDef{
	{Name: "bench.host_ref_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.host_noise_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "synth.write_s", Unit: "s", Better: "lower"},
	{Name: "synth.rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "voter.scan_s", Unit: "s", Better: "lower"},
	{Name: "voter.scan_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "core.import_s", Unit: "s", Better: "lower"},
	{Name: "core.import_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "core.import_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "core.dup_row_share", Unit: "ratio", Better: "higher"},
	{Name: "core.ingest_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "core.todocdb_s", Unit: "s", Better: "lower"},
	{Name: "core.fromdocdb_s", Unit: "s", Better: "lower"},
	{Name: "core.fingerprint_s", Unit: "s", Better: "lower"},
	{Name: "core.delta_apply_s", Unit: "s", Better: "lower"},
	{Name: "core.delta_touched_share", Unit: "ratio", Better: "lower"},
	{Name: "core.delta_dirty_share", Unit: "ratio", Better: "lower"},
	{Name: "plaus.update_s", Unit: "s", Better: "lower"},
	{Name: "plaus.pairs_per_s", Unit: "pairs/s", Better: "higher"},
	{Name: "plaus.delta_s", Unit: "s", Better: "lower"},
	{Name: "hetero.update_s", Unit: "s", Better: "lower"},
	{Name: "hetero.pairs_per_s", Unit: "pairs/s", Better: "higher"},
	{Name: "hetero.weights_s", Unit: "s", Better: "lower"},
	{Name: "hetero.delta_s", Unit: "s", Better: "lower"},
	{Name: "simil.dl_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "simil.monge_elkan_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "simil.jaro_winkler_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "simil.trigram_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "docstore.save_s", Unit: "s", Better: "lower"},
	{Name: "docstore.save_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "docstore.load_s", Unit: "s", Better: "lower"},
	{Name: "docstore.load_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "docstore.dirty_save_s", Unit: "s", Better: "lower"},
	{Name: "docstore.segments_rewritten_share", Unit: "ratio", Better: "lower"},
	{Name: "docstore.segments_cached_share", Unit: "ratio", Better: "higher"},
	{Name: "docstore.bytes_written_per_refresh", Unit: "bytes", Better: "lower"},
	{Name: "provenance.stamp_s", Unit: "s", Better: "lower"},
	{Name: "provenance.leaves_reused_share", Unit: "ratio", Better: "higher"},
	{Name: "provenance.verify_s", Unit: "s", Better: "lower"},
	{Name: "serving.build_s", Unit: "s", Better: "lower"},
	{Name: "serving.cache_hit_rate_hot", Unit: "ratio", Better: "higher"},
	{Name: "serving.cache_hit_rate_wide", Unit: "ratio", Better: "higher"},
	{Name: "serving.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "httpapi.hot_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.hot_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.wide_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.wide_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.wide_cluster_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.wide_list_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.wide_summary_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "httpapi.errors", Unit: "count", Better: "lower"},
	{Name: "obs.observe_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "custom.build_s", Unit: "s", Better: "lower"},
	{Name: "blocking.stream_s", Unit: "s", Better: "lower"},
	{Name: "blocking.pairs_per_record", Unit: "ratio", Better: "lower"},
	{Name: "blocking.recall", Unit: "ratio", Better: "higher"},
	{Name: "blocking.peak_backlog", Unit: "count", Better: "lower"},
	{Name: "dedup.preprocess_s", Unit: "s", Better: "lower"},
	{Name: "dedup.scoring_s", Unit: "s", Better: "lower"},
	{Name: "dedup.merge_s", Unit: "s", Better: "lower"},
	{Name: "dedup.memo_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "dedup.pairs_scored", Unit: "count", Better: "lower"},
	{Name: "dedup.peak_heap_mb", Unit: "MB", Better: "lower"},
}

const mb = 1e6

// phaseColumn returns one phase's time over the laps.
func phaseColumn(laps []*lapResult, p int) []float64 {
	out := make([]float64, len(laps))
	for i, l := range laps {
		out[i] = l.phase[p]
	}
	return out
}

// endToEndValues computes the eleven end-to-end metrics from the measured
// laps: a timing is the fastest measured lap of its own phase (lap_s adds the
// seven), a throughput divides the exact op count by that time, a memory
// figure is the median over laps.
func endToEndValues(sh shape, laps []*lapResult) map[string]float64 {
	var fast [numPhases]float64
	lapS := 0.0
	for p := 0; p < numPhases; p++ {
		fast[p] = fastest(phaseColumn(laps, p))
		lapS += fast[p]
	}
	f := laps[0].facts
	var heap, alloc []float64
	for _, l := range laps {
		heap = append(heap, float64(l.peakHeap)/mb)
		alloc = append(alloc, float64(l.alloc)/mb)
	}
	return map[string]float64{
		"setup_s":                    fast[phaseSetup],
		"lap_s":                      lapS,
		"build_rows_per_s":           float64(f.BaseRows) / fast[phaseBuild],
		"cold_start_s":               fast[phaseColdStart],
		"refresh_s":                  fast[phaseRefresh],
		"hot_req_per_s":              float64(sh.hotRequests) / fast[phaseHot],
		"wide_req_per_s":             float64(sh.wideRequests) / fast[phaseWide],
		"dedup_pairs_per_s":          float64(f.DedupPairs) / fast[phaseDedup],
		"peak_heap_mb":               median(heap),
		"alloc_mb":                   median(alloc),
		"store_bytes_per_input_byte": float64(f.StoreBytes) / float64(laps[0].inputBytes),
	}
}

// spanKey names the per-lap sum of one span name under one phase in a lap's
// raw observations.
func spanKey(phase, name string) string { return "t:" + phase + "/" + name }

// collectSpans folds a traced lap's spans into its raw observations: per phase
// and span name, the summed duration of one execution of the phase.
func collectSpans(sh shape, spans []span, lap int, raw map[string]float64) {
	reps := map[string]float64{"setup": float64(sh.setupReps), "cold_start": float64(sh.coldReps)}
	phaseOf := make([]string, len(spans))
	for _, s := range spans { // parents precede children
		if s.Lap != lap {
			continue
		}
		if s.Parent < 0 {
			phaseOf[s.ID] = strings.TrimPrefix(s.Name, "bench.")
			continue
		}
		phase := phaseOf[s.Parent]
		phaseOf[s.ID] = phase
		r := reps[phase]
		if r == 0 {
			r = 1
		}
		raw[spanKey(phase, s.Name)] += s.duration().Seconds() / r
	}
}

// column returns the laps' observations under key, skipping laps without one.
func column(laps []*lapResult, key string) []float64 {
	var out []float64
	for _, l := range laps {
		if v, ok := l.raw[key]; ok {
			out = append(out, v)
		}
	}
	return out
}

func hotLatencies(l *lapResult) map[string][]float64  { return l.hotLat }
func wideLatencies(l *lapResult) map[string][]float64 { return l.wideLat }

// pooled gathers one route's latencies (or every route's, for "") over laps.
func pooled(laps []*lapResult, pick func(*lapResult) map[string][]float64, route string) []float64 {
	var out []float64
	for _, l := range laps {
		for r, ms := range pick(l) {
			if route == "" || r == route {
				out = append(out, ms...)
			}
		}
	}
	return out
}

// perLayerValues computes every per-layer metric of a traced run. Times are
// the fastest lap's, like the end-to-end timings; shares and counts are
// medians; latencies are pooled over all measured laps.
func perLayerValues(laps []*lapResult, overheadPct float64) map[string]float64 {
	fast := func(key string) float64 { return fastest(column(laps, key)) }
	med := func(key string) float64 { return median(column(laps, key)) }
	spanFast := func(phase, name string) float64 { return fast(spanKey(phase, name)) }
	f := laps[0].facts
	hot, wide := pooled(laps, hotLatencies, ""), pooled(laps, wideLatencies, "")

	v := map[string]float64{
		"bench.host_ref_ms":        fast("bench.host_ref_ms"),
		"bench.host_noise_ratio":   med("bench.host_ref_ms") / fast("bench.host_ref_ms"),
		"bench.trace_overhead_pct": overheadPct,

		"synth.write_s": spanFast("setup", "synth.write"),
		"voter.scan_s":  fast("voter.scan_s"),

		"core.import_s":            spanFast("build", "core.import"),
		"core.import_alloc_mb":     med("core.import_alloc_bytes") / mb,
		"core.dup_row_share":       med("core.dup_row_share"),
		"core.ingest_stall_ms":     med("core.ingest_stall_ms"),
		"core.todocdb_s":           spanFast("build", "core.todocdb"),
		"core.fromdocdb_s":         spanFast("cold_start", "core.fromdocdb"),
		"core.fingerprint_s":       spanFast("refresh", "core.fingerprint"),
		"core.delta_apply_s":       spanFast("refresh", "core.delta_apply"),
		"core.delta_touched_share": med("core.delta_touched_share"),
		"core.delta_dirty_share":   med("core.delta_dirty_share"),

		"plaus.update_s":   spanFast("build", "plaus.update"),
		"plaus.delta_s":    spanFast("refresh", "plaus.delta"),
		"hetero.update_s":  spanFast("build", "hetero.update"),
		"hetero.weights_s": fast("hetero.weights_s"),
		"hetero.delta_s":   spanFast("refresh", "hetero.delta"),

		"simil.dl_ns_per_pair":           fast("simil.dl_ns_per_pair"),
		"simil.monge_elkan_ns_per_pair":  fast("simil.monge_elkan_ns_per_pair"),
		"simil.jaro_winkler_ns_per_pair": fast("simil.jaro_winkler_ns_per_pair"),
		"simil.trigram_ns_per_pair":      fast("simil.trigram_ns_per_pair"),

		"docstore.save_s":                    fast("docstore.save_s"),
		"docstore.load_s":                    spanFast("cold_start", "docstore.load"),
		"docstore.dirty_save_s":              fast("docstore.dirty_save_s"),
		"docstore.segments_rewritten_share":  med("docstore.segments_rewritten_share"),
		"docstore.segments_cached_share":     med("docstore.segments_cached_share"),
		"docstore.bytes_written_per_refresh": med("docstore.bytes_written_per_refresh"),

		"provenance.leaves_reused_share": med("provenance.leaves_reused_share"),
		"provenance.verify_s":            fast("provenance.verify_s"),

		"serving.build_s":             spanFast("cold_start", "serving.publish"),
		"serving.cache_hit_rate_hot":  med("serving.cache_hit_rate_hot"),
		"serving.cache_hit_rate_wide": med("serving.cache_hit_rate_wide"),
		"serving.cache_evictions":     med("serving.cache_evictions"),

		"httpapi.hot_p50_ms":          percentile(hot, 0.50),
		"httpapi.hot_p99_ms":          percentile(hot, 0.99),
		"httpapi.wide_p50_ms":         percentile(wide, 0.50),
		"httpapi.wide_p99_ms":         percentile(wide, 0.99),
		"httpapi.wide_cluster_p99_ms": percentile(pooled(laps, wideLatencies, "GET /v1/clusters/{ncid}"), 0.99),
		"httpapi.wide_list_p99_ms":    percentile(pooled(laps, wideLatencies, "GET /v1/clusters"), 0.99),
		"httpapi.wide_summary_p99_ms": percentile(pooled(laps, wideLatencies, "GET /v1/clusters/summary"), 0.99),
		"httpapi.errors":              sum(column(laps, "httpapi.errors")),

		"obs.observe_ns_per_call": fast("obs.observe_ns_per_call"),
		"custom.build_s":          spanFast("dedup", "custom.build"),

		"blocking.stream_s":         fast("blocking.stream_s"),
		"blocking.pairs_per_record": med("blocking.pairs_per_record"),
		"blocking.recall":           med("blocking.recall"),
		"blocking.peak_backlog":     med("blocking.peak_backlog"),

		"dedup.preprocess_s":  fast("dedup.preprocess_s"),
		"dedup.scoring_s":     fast("dedup.scoring_s"),
		"dedup.merge_s":       fast("dedup.merge_s"),
		"dedup.memo_hit_rate": med("dedup.memo_hit_rate"),
		"dedup.pairs_scored":  med("dedup.pairs_scored"),
		"dedup.peak_heap_mb":  med("dedup.peak_heap_bytes") / mb,
	}
	v["synth.rows_per_s"] = med("synth.rows") / v["synth.write_s"]
	v["voter.scan_rows_per_s"] = med("voter.scan_rows") / v["voter.scan_s"]
	v["core.import_rows_per_s"] = float64(f.BaseRows) / v["core.import_s"]
	v["plaus.pairs_per_s"] = float64(f.BasePairs) / v["plaus.update_s"]
	v["hetero.pairs_per_s"] = float64(f.BasePairs) / v["hetero.update_s"]
	v["docstore.save_mb_per_s"] = float64(f.StoreBytes) / mb / v["docstore.save_s"]
	v["docstore.load_mb_per_s"] = float64(f.StoreBytes) / mb / v["docstore.load_s"]
	v["provenance.stamp_s"] = math.Max(0, spanFast("build", "provenance.save")-v["docstore.save_s"])
	for name, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			v[name] = 0 // an observation this shape never produced
		}
	}
	return v
}

func sum(v []float64) float64 {
	total := 0.0
	for _, x := range v {
		total += x
	}
	return total
}

// traceOverheadPct estimates what tracing adds to lap_s: the spans and the
// recorded request latencies of one lap, times the calibrated cost of
// recording one of each, as a share of lap_s. The isolating calls run outside
// the timed windows, and a collection precedes each window, so recording is
// the only work a traced run adds inside them.
func traceOverheadPct(spansPerLap, requestsPerLap int, lapS float64) float64 {
	const n = 200000
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("bench.calibrate"))
	}
	perSpan := time.Since(start).Seconds() / n

	lr := &latencyRecorder{next: nopHandler{}, routeOf: map[string]int{}, samples: make([]latencySample, n)}
	bare := nopHandler{}
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	start = time.Now()
	for i := 0; i < n; i++ {
		lr.ServeHTTP(nil, req)
	}
	recorded := time.Since(start).Seconds()
	start = time.Now()
	for i := 0; i < n; i++ {
		bare.ServeHTTP(nil, req)
	}
	perRequest := math.Max(0, recorded-time.Since(start).Seconds()) / n

	return 100 * (float64(spansPerLap)*perSpan + float64(requestsPerLap)*perRequest) / lapS
}

// nopHandler is the handler the latency recorder wraps during calibration.
type nopHandler struct{}

func (nopHandler) ServeHTTP(http.ResponseWriter, *http.Request) {}
