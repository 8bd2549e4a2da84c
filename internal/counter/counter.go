// Package counter is the one seam through which the pipeline layers (core,
// docstore, provenance, dedup, blocking, serving) report their named event
// counters. A layer accepts a Sink and never imports the exposition side;
// *obs.Metrics satisfies Sink structurally, so the dependency points upward
// and the batch layers link neither obs nor net/http.
//
// Every reported delta reaches the sink, zero included: a counter that
// exists at 0 is exported at 0.
package counter

// Sink receives named counter deltas. Layers call it from worker
// goroutines, so implementations must be safe for concurrent use.
type Sink interface {
	AddN(name string, n int64)
}

// Add reports n to the named counter of s; a nil s drops it.
func Add(s Sink, name string, n int64) {
	if s != nil {
		s.AddN(name, n)
	}
}
