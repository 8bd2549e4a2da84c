package obs

import (
	"strings"
	"testing"

	"repro/internal/counter"
)

// Metrics is the sink every pipeline layer reports its counters into.
var _ counter.Sink = (*Metrics)(nil)

// TestCounterFamilies routes each layer's counter names to its Prometheus
// family. Each row adds counters to a fresh registry and names the
// exposition lines that must appear and the fragments that must not: a
// layer counter never falls through to the middleware events, and no family
// claims another's counters — blocking_stream_* shares the blocking_ prefix
// and must still land in its own family, the longer prefix winning.
func TestCounterFamilies(t *testing.T) {
	type add struct {
		name string
		n    int64
	}
	for _, tc := range []struct {
		name  string
		adds  []add
		want  []string
		leaks []string
	}{
		{
			name: "ingest",
			adds: []add{{"ingest_rows_decoded", 1200}, {"ingest_rows_decoded", 300}, {"ingest_records_added", 40}, {"panics", 1}},
			want: []string{
				`ingest_pipeline_total{counter="rows_decoded"} 1500`,
				`ingest_pipeline_total{counter="records_added"} 40`,
				`http_server_events_total{event="panics"} 1`,
			},
			leaks: []string{`http_server_events_total{event="ingest_`},
		},
		{
			name: "delta",
			adds: []add{{"delta_applies", 2}, {"delta_rows_decoded", 1000}, {"delta_rows_unchanged", 950},
				{"delta_records_added", 40}, {"delta_new_objects", 10}, {"delta_clusters_touched", 45},
				{"delta_clusters_dirty", 30}, {"delta_clusters_rescored", 30}, {"ingest_rows_decoded", 1000}},
			want: []string{
				`delta_pipeline_total{counter="applies"} 2`,
				`delta_pipeline_total{counter="rows_decoded"} 1000`,
				`delta_pipeline_total{counter="rows_unchanged"} 950`,
				`delta_pipeline_total{counter="records_added"} 40`,
				`delta_pipeline_total{counter="new_objects"} 10`,
				`delta_pipeline_total{counter="clusters_touched"} 45`,
				`delta_pipeline_total{counter="clusters_dirty"} 30`,
				`delta_pipeline_total{counter="clusters_rescored"} 30`,
				`ingest_pipeline_total{counter="rows_decoded"} 1000`,
			},
			leaks: []string{`http_server_events_total{event="delta_`,
				`ingest_pipeline_total{counter="delta_`, `delta_pipeline_total{counter="ingest_`},
		},
		{
			name: "score",
			adds: []add{{"score_pairs_scored", 1000}, {"score_memo_hits", 800}, {"score_memo_misses", 200},
				{"score_memo_skips", 0}, {"ingest_rows_decoded", 5}, {"panics", 1}},
			want: []string{
				`score_pipeline_total{counter="pairs_scored"} 1000`,
				`score_pipeline_total{counter="memo_hits"} 800`,
				`score_pipeline_total{counter="memo_misses"} 200`,
				`score_pipeline_total{counter="memo_skips"} 0`, // a reported zero is exported
				`ingest_pipeline_total{counter="rows_decoded"} 5`,
				`http_server_events_total{event="panics"} 1`,
			},
			leaks: []string{`http_server_events_total{event="score_`,
				`ingest_pipeline_total{counter="score_`, `score_pipeline_total{counter="ingest_`},
		},
		{
			name: "blocking",
			adds: []add{{"blocking_runs", 1}, {"blocking_records", 500}, {"blocking_snm_passes", 5},
				{"blocking_snm_pairs", 9000}, {"blocking_trigram_pairs", 1200}, {"blocking_trigram_buckets", 340},
				{"blocking_trigram_oversize_buckets", 2}, {"blocking_pairs_emitted", 10200},
				{"blocking_pairs_unique", 7600}, {"score_pairs_scored", 7600}},
			want: []string{
				`blocking_pipeline_total{counter="runs"} 1`,
				`blocking_pipeline_total{counter="records"} 500`,
				`blocking_pipeline_total{counter="snm_passes"} 5`,
				`blocking_pipeline_total{counter="snm_pairs"} 9000`,
				`blocking_pipeline_total{counter="trigram_pairs"} 1200`,
				`blocking_pipeline_total{counter="trigram_buckets"} 340`,
				`blocking_pipeline_total{counter="trigram_oversize_buckets"} 2`,
				`blocking_pipeline_total{counter="pairs_emitted"} 10200`,
				`blocking_pipeline_total{counter="pairs_unique"} 7600`,
				`score_pipeline_total{counter="pairs_scored"} 7600`,
			},
			leaks: []string{`http_server_events_total{event="blocking_`,
				`score_pipeline_total{counter="blocking_`, `blocking_pipeline_total{counter="score_`},
		},
		{
			name: "stream",
			adds: []add{{"blocking_stream_batches", 42}, {"blocking_stream_pairs", 170000},
				{"blocking_stream_peak_backlog", 3}, {"dedup_stream_batches", 42}, {"dedup_stream_pairs", 170000},
				{"blocking_pairs_unique", 170000}, {"score_pairs_scored", 170000}},
			want: []string{
				`blocking_stream_total{counter="batches"} 42`,
				`blocking_stream_total{counter="pairs"} 170000`,
				`blocking_stream_total{counter="peak_backlog"} 3`,
				`dedup_stream_total{counter="batches"} 42`,
				`dedup_stream_total{counter="pairs"} 170000`,
				`blocking_pipeline_total{counter="pairs_unique"} 170000`,
			},
			leaks: []string{`blocking_pipeline_total{counter="stream_`, `http_server_events_total{event="dedup_stream_`},
		},
		{
			name: "docstore",
			adds: []add{{"docstore_segments_written", 8}, {"docstore_bytes_written", 1 << 20},
				{"docstore_segments_cached", 3}, {"docstore_docs_read", 2}, {"docstore_segments_reused", 0},
				{"ingest_rows_decoded", 5}, {"panics", 1}},
			want: []string{
				`docstore_pipeline_total{counter="segments_written"} 8`,
				`docstore_pipeline_total{counter="bytes_written"} 1048576`,
				`docstore_pipeline_total{counter="segments_cached"} 3`,
				`docstore_pipeline_total{counter="docs_read"} 2`,
				`docstore_pipeline_total{counter="segments_reused"} 0`,
				`ingest_pipeline_total{counter="rows_decoded"} 5`,
				`http_server_events_total{event="panics"} 1`,
			},
			leaks: []string{`http_server_events_total{event="docstore_`,
				`ingest_pipeline_total{counter="docstore_`, `docstore_pipeline_total{counter="ingest_`},
		},
		{
			name: "serving-provenance",
			adds: []add{{"serving_swaps", 1}, {"serving_cache_hits", 3}, {"provenance_stamps", 1},
				{"provenance_leaves_reused", 0}, {"provenance_served", 2}},
			want: []string{
				`serving_total{counter="swaps"} 1`,
				`serving_total{counter="cache_hits"} 3`,
				`provenance_total{counter="stamps"} 1`,
				`provenance_total{counter="leaves_reused"} 0`,
				`provenance_total{counter="served"} 2`,
			},
			leaks: []string{`http_server_events_total{event="serving_`, `http_server_events_total{event="provenance_`},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMetrics()
			for _, a := range tc.adds {
				m.AddN(a.name, a.n)
			}
			text := m.PrometheusText()
			for _, w := range tc.want {
				if !strings.Contains(text, w+"\n") {
					t.Errorf("exposition misses %q:\n%s", w, text)
				}
			}
			for _, l := range tc.leaks {
				if strings.Contains(text, l) {
					t.Errorf("exposition holds %q:\n%s", l, text)
				}
			}
		})
	}
}
