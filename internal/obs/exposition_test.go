package obs

import (
	"testing"
	"time"
)

// TestPrometheusTextWholeExposition pins the complete exposition — every
// counter family, the order between families, two routes — to the bytes
// the hand-written per-family blocks produced before the family table
// replaced them. The per-family tests check membership only.
func TestPrometheusTextWholeExposition(t *testing.T) {
	m := NewMetrics()
	for _, c := range []string{"panics", "ingest_rows_decoded", "delta_applies", "score_pairs_scored",
		"blocking_runs", "blocking_stream_batches", "dedup_stream_batches", "docstore_segments_saved",
		"serving_swaps", "provenance_records_stamped"} {
		m.AddN(c, int64(len(c)))
	}
	m.Observe("/v1/stats", 200, 2*time.Millisecond)
	m.Observe("/v1/stats", 304, 4*time.Millisecond)
	m.Observe("/v1/clusters", 200, 8*time.Millisecond)
	m.inFlight.Add(3)
	if got := m.PrometheusText(); got != wholeExposition {
		t.Errorf("exposition changed:\n--- got\n%s--- want\n%s", got, wholeExposition)
	}
}

const wholeExposition = `# HELP http_requests_in_flight Requests currently being served.
# TYPE http_requests_in_flight gauge
http_requests_in_flight 3
# HELP http_server_events_total Middleware events (panics, timeouts, shed).
# TYPE http_server_events_total counter
http_server_events_total{event="panics"} 6
# HELP ingest_pipeline_total Parallel snapshot-ingest pipeline counters.
# TYPE ingest_pipeline_total counter
ingest_pipeline_total{counter="rows_decoded"} 19
# HELP delta_pipeline_total Incremental snapshot application counters (applies, rows decoded/unchanged, records and objects added, clusters touched/dirty/rescored).
# TYPE delta_pipeline_total counter
delta_pipeline_total{counter="applies"} 13
# HELP score_pipeline_total Parallel pair-scoring engine counters (pairs scored, values preprocessed, memo hits/misses/skips).
# TYPE score_pipeline_total counter
score_pipeline_total{counter="pairs_scored"} 18
# HELP blocking_pipeline_total Candidate-generation layer counters (runs, records keyed, per-pass pair emissions, unique candidates).
# TYPE blocking_pipeline_total counter
blocking_pipeline_total{counter="runs"} 13
# HELP blocking_stream_total Streamed candidate-emission counters (batches emitted, pairs streamed, peak batch backlog).
# TYPE blocking_stream_total counter
blocking_stream_total{counter="batches"} 23
# HELP dedup_stream_total Streaming scoring-consumer counters (batches consumed, pairs scored from the stream).
# TYPE dedup_stream_total counter
dedup_stream_total{counter="batches"} 20
# HELP docstore_pipeline_total Document store counters (segments, bytes and documents saved/loaded, segments reused or served from the segment cache).
# TYPE docstore_pipeline_total counter
docstore_pipeline_total{counter="segments_saved"} 23
# HELP serving_total Serving-snapshot counters (swaps, response-cache hits/misses/evictions).
# TYPE serving_total counter
serving_total{counter="swaps"} 13
# HELP provenance_total Corpus provenance counters (records stamped, chain links/resets, leaves hashed/reused, records served).
# TYPE provenance_total counter
provenance_total{counter="records_stamped"} 26
# HELP http_requests_total Requests served, by route and status code.
# TYPE http_requests_total counter
http_requests_total{route="/v1/clusters",code="200"} 1
http_requests_total{route="/v1/stats",code="200"} 1
http_requests_total{route="/v1/stats",code="304"} 1
# HELP http_request_duration_seconds Request latency summary, by route.
# TYPE http_request_duration_seconds summary
http_request_duration_seconds{route="/v1/clusters",quantile="0.5"} 0.00805
http_request_duration_seconds{route="/v1/clusters",quantile="0.9"} 0.008090000000000002
http_request_duration_seconds{route="/v1/clusters",quantile="0.99"} 0.008099
http_request_duration_seconds_sum{route="/v1/clusters"} 0.008
http_request_duration_seconds_count{route="/v1/clusters"} 1
http_request_duration_seconds{route="/v1/stats",quantile="0.5"} 0.0021000000000000003
http_request_duration_seconds{route="/v1/stats",quantile="0.9"} 0.00408
http_request_duration_seconds{route="/v1/stats",quantile="0.99"} 0.004098
http_request_duration_seconds_sum{route="/v1/stats"} 0.006
http_request_duration_seconds_count{route="/v1/stats"} 2
`
