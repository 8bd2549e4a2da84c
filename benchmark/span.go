package main

import (
	"sort"
	"strings"
	"time"
)

// span is one traced call into a layer. Spans are recorded from the
// benchmark's own files, around the public call; they nest by call order on
// the benchmark's goroutine. A span whose interval was reported by the layer
// instead of observed here (the streaming blocker's Elapsed, the scorer's
// OnStage durations) is marked Reported.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Lap      int    `json:"lap"`
	Name     string `json:"name"` // "<layer>.<call>"
	StartNS  int64  `json:"startNs"`
	EndNS    int64  `json:"endNs"`
	Reported bool   `json:"reported,omitempty"`
}

func (s span) duration() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// layer returns the module a span is charged to: the name up to the first dot.
func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps the spans of a traced run in memory; main writes them out when
// the run ends. A nil tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	lap   int
	spans []span
	open  []int // stack of open span ids
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Lap: t.lap, Name: name, StartNS: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// startOf returns when a recorded span began.
func (t *tracer) startOf(id int) time.Time { return t.t0.Add(time.Duration(t.spans[id].StartNS)) }

// report records, as a child of parent, a span whose duration the layer (or an
// isolating call made after the fact) measured: it starts at start and lasts d.
func (t *tracer) report(parent int, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Lap: t.lap, Name: name,
		StartNS: s, EndNS: s + int64(d), Reported: true,
	})
}

// selfTimes returns each span's self time: its duration minus the part of its
// interval that its child spans cover. Children may overlap one another (the
// streaming blocker runs concurrently with the scorer), so the covered part is
// the union of the child intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make([]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].StartNS < spans[kids[j]].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, reach), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.duration() - time.Duration(covered)
	}
	return out
}

// layerSelf sums self time per layer over the spans below (and including) each
// root span named root, for one lap.
func layerSelf(spans []span, self []time.Duration, root string, lap int) map[string]time.Duration {
	under := make([]bool, len(spans))
	out := map[string]time.Duration{}
	for _, s := range spans { // parents precede children
		if s.Lap != lap {
			continue
		}
		if s.Name == root || (s.Parent >= 0 && under[s.Parent]) {
			under[s.ID] = true
			out[s.layer()] += self[s.ID]
		}
	}
	return out
}
