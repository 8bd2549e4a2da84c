package obs

import (
	"strings"
	"testing"

	"repro/internal/docstore"
)

// Metrics must satisfy the document store's observer interface so serving
// and import processes can expose persistence counters on /metrics.
var _ docstore.StoreObserver = (*Metrics)(nil)

func TestDocstorePrometheusFamily(t *testing.T) {
	m := NewMetrics()
	m.AddN(docstore.CounterSegmentsWritten, 8)
	m.AddN(docstore.CounterBytesWritten, 1<<20)
	m.AddN(docstore.CounterSegmentsCached, 3)
	m.AddN(docstore.CounterDocsRead, 2)
	m.AddN("ingest_rows_decoded", 5)
	m.Inc("panics")

	text := m.PrometheusText()
	for _, want := range []string{
		`docstore_pipeline_total{counter="segments_written"} 8`,
		`docstore_pipeline_total{counter="bytes_written"} 1048576`,
		`docstore_pipeline_total{counter="segments_cached"} 3`,
		`docstore_pipeline_total{counter="docs_read"} 2`,
		`ingest_pipeline_total{counter="rows_decoded"} 5`,
		`http_server_events_total{event="panics"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus text missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, `http_server_events_total{event="docstore_`) {
		t.Error("docstore counters leaked into the http_server_events_total family")
	}
	if strings.Contains(text, `ingest_pipeline_total{counter="docstore_`) ||
		strings.Contains(text, `docstore_pipeline_total{counter="ingest_`) {
		t.Error("docstore/ingest families cross-contaminated")
	}
}
