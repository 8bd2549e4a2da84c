package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A one-lap run of the tiny shape through all seven phases, checks on: every
// end-to-end metric is a positive number, no op fails, and the driver's result
// line has exactly the declared metrics.
func TestSmokeRun(t *testing.T) {
	t.Parallel()
	res, err := run(tiny, options{seed: 1, laps: 1, workDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatalf("checks failed:\n  %s", joinLines(res.failures))
	}
	if len(res.laps) != 1 || res.attempted == 0 {
		t.Fatalf("%d measured laps, %d ops", len(res.laps), res.attempted)
	}
	for p, name := range phaseNames {
		if res.laps[0].phase[p] <= 0 {
			t.Errorf("phase %s was not timed", name)
		}
	}
	out := res.result(false)
	if len(out.Metrics) != len(endToEnd) {
		t.Errorf("result line has %d metrics, want %d", len(out.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		m, ok := out.Metrics[d.Name]
		if !ok || !(m.Value > 0) || m.Unit != d.Unit {
			t.Errorf("%s = %+v, want a positive value in %s", d.Name, m, d.Unit)
		}
	}
	f := res.facts
	if f.RefreshRows == 0 || f.RefreshRows >= f.BaseRows || f.Records <= f.BaseRecords {
		t.Errorf("refresh of %d rows took %d records to %d: want a small feed that adds records", f.RefreshRows, f.BaseRecords, f.Records)
	}
	if f.DedupPairs == 0 || len(f.Candidates) != 3 || len(f.BestF1Bits) != 3 {
		t.Errorf("dedup facts incomplete: %+v", f)
	}
	if _, err := os.ReadDir(res.opts.workDir); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(res.opts.workDir, "*", "lap-*")); len(left) != 0 {
		t.Errorf("laps left files behind: %v", left)
	}
}

// A traced run makes the isolating calls, writes the span file and reports
// every declared per-layer metric.
func TestSmokeTracedRun(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	var report strings.Builder
	res, err := run(tiny, options{seed: 2, laps: 1, trace: true, traceFile: path, workDir: dir}, &report)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatalf("checks failed:\n  %s", joinLines(res.failures))
	}
	out := res.result(true)
	if len(out.Metrics) != len(perLayer) {
		t.Errorf("result line has %d metrics, want %d", len(out.Metrics), len(perLayer))
	}
	for _, name := range []string{
		"synth.write_s", "voter.scan_s", "core.import_s", "core.todocdb_s", "core.fromdocdb_s", "core.delta_apply_s",
		"plaus.update_s", "hetero.update_s", "hetero.weights_s", "simil.dl_ns_per_pair", "docstore.save_s",
		"docstore.load_s", "docstore.dirty_save_s", "provenance.verify_s", "serving.build_s", "httpapi.hot_p99_ms",
		"httpapi.wide_summary_p99_ms", "obs.observe_ns_per_call", "custom.build_s", "blocking.stream_s", "dedup.scoring_s",
		"dedup.peak_heap_mb", "serving.cache_hit_rate_hot", "bench.host_ref_ms",
	} {
		if !(res.layer[name] > 0) {
			t.Errorf("%s = %v, want a positive observation", name, res.layer[name])
		}
	}
	if res.layer["httpapi.errors"] != 0 {
		t.Errorf("httpapi.errors = %v", res.layer["httpapi.errors"])
	}
	for _, phase := range phaseNames {
		if len(res.budget[phase]) == 0 {
			t.Errorf("no layer budget for phase %s", phase)
		}
	}
	if !strings.Contains(report.String(), "self time per layer") {
		t.Error("the traced report lacks the layer budget")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || tf.Env["go"] == nil {
		t.Errorf("span file has %d spans, env %v", len(tf.Spans), tf.Env)
	}
	for _, s := range tf.Spans {
		if s.EndNS < s.StartNS || s.Parent >= s.ID {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// Facts that differ are named field by field, so a failed identity check says
// what moved.
func TestFactsDiff(t *testing.T) {
	a := facts{BaseRows: 10, Candidates: map[string]int{"jw": 4}, BestF1Bits: map[string]string{"jw": f1Bits(0.5)}}
	b := a
	if d := a.diff(b); len(d) != 0 {
		t.Errorf("equal facts differ: %v", d)
	}
	b.BaseRows = 11
	b.Candidates = map[string]int{"jw": 5}
	d := a.diff(b)
	if len(d) != 2 || !strings.HasPrefix(d[0], "BaseRows") || !strings.HasPrefix(d[1], "Candidates") {
		t.Errorf("diff = %v, want BaseRows and Candidates", d)
	}
	if !strings.HasPrefix(f1Bits(0.5), "3fe0000000000000/") {
		t.Errorf("f1Bits(0.5) = %s, want the IEEE bits first", f1Bits(0.5))
	}
}
