package testkit_test

import (
	"strings"
	"testing"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/dedup"
	"repro/internal/docstore"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/serving"
	"repro/internal/testkit"
)

// TestLayerCountersReachTheirFamilies checks the counter names the layers
// really report against obs's family table. Every layer that takes a
// counter.Sink reports into one *obs.Metrics — ingest, delta, save, load,
// stamp, blocking stream, scoring, serving source and cache — and then no
// counter may fall through to the middleware events, and each of the nine
// families must print.
func TestLayerCountersReachTheirFamilies(t *testing.T) {
	m := obs.NewMetrics()
	corpus := testkit.Corpus{Seed: 61}
	paths := corpus.SnapshotFiles(t, 60, 3)
	d := core.NewDataset(core.RemoveTrimmed)
	for _, p := range paths[:2] {
		if _, err := d.ImportSnapshotFileParallelOpts(p, core.IngestOptions{Workers: 2, Observer: m}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.ApplySnapshotDelta(paths[2], core.DeltaOptions{Observer: m}); err != nil {
		t.Fatal(err)
	}
	d.Publish()
	dir := t.TempDir()
	if _, err := provenance.Save(d.ToDocDB(), dir, docstore.SaveOpts{Observer: m}, provenance.StampOpts{Observer: m}); err != nil {
		t.Fatal(err)
	}
	if _, err := docstore.LoadParallelOpts(dir, docstore.LoadOpts{Observer: m}); err != nil {
		t.Fatal(err)
	}

	ds := corpus.DedupDataset(t, 60, 3, 0, 80)
	s := blocking.GenerateStream(ds, blocking.Config{Passes: blocking.EntropyPasses(ds, 2), Observer: m}, blocking.StreamOpts{})
	dedup.EvaluateCandidatesStream(ds, dedup.MeasureJaroWinkler, s.C, 10, dedup.ScoreOpts{Observer: m, Recycle: s.Recycle})

	serving.NewSource(m).Swap(serving.Build(d, serving.BuildOpts{}))
	cache := serving.NewResponseCache(1, m)
	for _, resource := range []string{"GET /v1/stats", "GET /v1/years"} {
		key := serving.CacheKey{Generation: 1, Resource: resource}
		cache.Get(key)
		cache.Put(key, serving.CachedResponse{Status: 200})
	}

	text := m.PrometheusText()
	if strings.Contains(text, "http_server_events_total{") {
		t.Errorf("a layer counter fell through to the middleware events:\n%s", text)
	}
	for _, family := range []string{
		"ingest_pipeline_total", "delta_pipeline_total", "score_pipeline_total",
		"blocking_pipeline_total", "blocking_stream_total", "dedup_stream_total",
		"docstore_pipeline_total", "serving_total", "provenance_total",
	} {
		if !strings.Contains(text, "\n"+family+"{counter=") {
			t.Errorf("family %s printed no counter:\n%s", family, text)
		}
	}
}
