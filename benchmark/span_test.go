package main

import (
	"testing"
	"time"
)

// ms builds a span from millisecond offsets.
func ms(id, parent int, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Lap: 1, Name: name, StartNS: start * 1e6, EndNS: end * 1e6}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		ms(0, -1, "bench.build", 0, 100),
		ms(1, 0, "core.import", 0, 40),
		ms(2, 0, "provenance.save", 50, 90),
		ms(3, 2, "docstore.save", 50, 80), // reported child: splits the save
		ms(4, -1, "bench.dedup", 100, 200),
		ms(5, 4, "dedup.sweep", 100, 200),
		// The streaming blocker overlaps the scorer, and outlasts its parent.
		ms(6, 5, "dedup.scoring", 110, 190),
		ms(7, 5, "blocking.stream", 100, 230),
	}
	want := []time.Duration{
		20 * time.Millisecond, // build: 100 - import 40 - save 40
		40 * time.Millisecond,
		10 * time.Millisecond, // save: 40 - docstore 30
		30 * time.Millisecond,
		0,
		0,                      // sweep: children cover it whole, clipped at its end
		80 * time.Millisecond,  // overlapping siblings each keep their own time
		130 * time.Millisecond, // a span's own duration is not clipped
	}
	self := selfTimes(spans)
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], w)
		}
	}

	build := layerSelf(spans, self, "bench.build", 1)
	if build["core"] != 40*time.Millisecond || build["docstore"] != 30*time.Millisecond ||
		build["provenance"] != 10*time.Millisecond || build["bench"] != 20*time.Millisecond {
		t.Errorf("layer budget of build = %v", build)
	}
	if _, ok := build["dedup"]; ok {
		t.Error("build's budget holds a span of another phase")
	}
	if got := layerSelf(spans, self, "bench.build", 2); len(got) != 0 {
		t.Errorf("budget of a lap without spans = %v", got)
	}
}

func TestTracerNesting(t *testing.T) {
	var off *tracer
	off.do("core.import", func() {}) // the untraced run: nothing recorded, nothing dereferenced
	off.report(off.begin("x"), "y", time.Now(), time.Second)

	tr := newTracer()
	tr.lap = 3
	outer := tr.begin("bench.build")
	tr.do("core.import", func() {})
	tr.report(outer, "docstore.save", tr.startOf(outer), time.Millisecond)
	tr.end(outer)
	tr.do("bench.hot", func() {})
	if len(tr.spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(tr.spans))
	}
	for i, wantParent := range []int{-1, 0, 0, -1} {
		if tr.spans[i].Parent != wantParent || tr.spans[i].Lap != 3 {
			t.Errorf("span %d: parent %d lap %d, want parent %d lap 3", i, tr.spans[i].Parent, tr.spans[i].Lap, wantParent)
		}
	}
	if !tr.spans[2].Reported || tr.spans[2].StartNS != tr.spans[0].StartNS {
		t.Errorf("reported span = %+v, want it to start with its parent", tr.spans[2])
	}
	if tr.spans[0].layer() != "bench" || tr.spans[1].layer() != "core" {
		t.Error("layer is the name up to the first dot")
	}
}

func TestCollectSpansDividesByRepetitions(t *testing.T) {
	sh := shape{setupReps: 2, coldReps: 4}
	spans := []span{
		ms(0, -1, "bench.setup", 0, 100),
		ms(1, 0, "synth.write", 0, 50),
		ms(2, 0, "synth.write", 50, 100),
		ms(3, -1, "bench.build", 100, 200),
		ms(4, 3, "core.import", 100, 130),
		ms(5, 3, "core.import", 130, 150),
	}
	raw := map[string]float64{}
	collectSpans(sh, spans, 1, raw)
	if got := raw[spanKey("setup", "synth.write")]; got != 0.05 {
		t.Errorf("synth.write per execution = %v s, want 0.05", got)
	}
	if got := raw[spanKey("build", "core.import")]; got != 0.05 {
		t.Errorf("core.import summed over files = %v s, want 0.05", got)
	}
}
