// Candidate generation as a bounded-memory stream — the package's one
// implementation. Materializing every pass's pair slice and then their
// sorted union before scoring sees a single pair sets a peak that, at full
// corpus scale, decides whether end-to-end dedup fits in RAM at all (cf.
// the clinical-note dedup study in PAPERS.md: block-then-score only pays
// off when the intermediate pair set never lands in memory at once).
// GenerateStream yields the deduplicated, totally ordered candidate stream
// — GenerateSeq's pairs and Stats, bit for bit — as bounded batches through
// a backpressured channel:
//
//   - each SNM pass becomes an O(records) iterator: after the parallel key
//     derivation and sort, the pass's pairs are enumerated directly in
//     (I, J) order by walking each record's sorted-neighborhood window
//     through the inverse permutation — the pass's full pair slice (window
//     × records entries) never exists;
//   - a k-way merge with dedupe at the merge point drains all passes in
//     the global (I, J) total order, filling fixed-size batches that travel
//     through a channel of configurable capacity. The producer blocks when
//     the consumer falls behind, so pairs in flight are bounded by
//     (Buffer+1) × BatchSize regardless of corpus size.
//
// Determinism: every pass enumerates a pure function of the dataset and
// configuration in a fixed order, and the merge comparator is the total
// order GenerateSeq sorts under — so the emitted concatenation equals its
// slice element for element at any worker count, enforced by the package
// tests and the testkit oracles (`make conformance`).

package blocking

import (
	"sort"
	"sync"
	"time"

	"repro/internal/counter"
	"repro/internal/dedup"
)

// Default streaming parameters.
const (
	// defaultStreamBatch is the pair count per emitted batch.
	defaultStreamBatch = 4096
	// defaultStreamBuffer is the channel capacity in batches.
	defaultStreamBuffer = 4
)

// StreamOpts tunes GenerateStream's batch emission and backpressure.
type StreamOpts struct {
	// BatchSize is the pair count per emitted batch; 0 selects the
	// default of 4096, values below 1 clamp to 1.
	BatchSize int
	// Buffer is the emission channel's capacity in batches — together with
	// BatchSize it bounds the pairs in flight between producer and
	// consumer; 0 selects the default of 4, negative selects an
	// unbuffered channel (full lockstep).
	Buffer int
}

func (o StreamOpts) batchSize() int {
	if o.BatchSize == 0 {
		return defaultStreamBatch
	}
	if o.BatchSize < 1 {
		return 1
	}
	return o.BatchSize
}

func (o StreamOpts) buffer() int {
	if o.Buffer == 0 {
		return defaultStreamBuffer
	}
	if o.Buffer < 0 {
		return 0
	}
	return o.Buffer
}

// Stream is one running streamed blocking run. Batches arrive on C in
// strictly increasing (I, J) order with no pair repeated across batches;
// C closes after the last batch. Consumers must drain C: the producer
// blocks on every send, so a consumer that stops early leaves its
// goroutine parked. Consumers that keep a batch past the next receive must
// copy it only if they also return it via Recycle — otherwise the batch is
// theirs.
type Stream struct {
	// C yields the candidate batches. Receive until closed.
	C <-chan []dedup.Pair

	fin chan struct{}

	pool sync.Pool

	// Written by the producer before fin closes.
	stats   Stats
	elapsed time.Duration
	blocked time.Duration // spent in sends waiting for the consumer
	batches int64
	backlog int64
}

// Stats blocks until the producer has finished (C closed) and returns the
// run's Stats — identical to what GenerateSeq returns for the same dataset
// and configuration.
func (s *Stream) Stats() Stats {
	<-s.fin
	return s.stats
}

// Elapsed blocks like Stats and returns the producer's wall time from
// GenerateStream to its last emission — including any time spent blocked
// on the channel waiting for the consumer.
func (s *Stream) Elapsed() time.Duration {
	<-s.fin
	return s.elapsed
}

// Busy blocks like Stats and returns the producer's time outside blocked
// sends: key derivation, sorting, the window walk and the merge. The
// producer runs concurrently with its consumer, so Busy — not Elapsed — is
// the blocking stage's own share of a pipeline's wall time.
func (s *Stream) Busy() time.Duration {
	<-s.fin
	return s.elapsed - s.blocked
}

// Recycle returns a fully consumed batch to the producer's buffer pool so
// steady-state emission reuses backing arrays instead of allocating one
// slice per batch. Optional; never pass a batch that is still being read.
func (s *Stream) Recycle(batch []dedup.Pair) {
	if batch == nil {
		return
	}
	s.pool.Put(batch[:0]) //nolint:staticcheck // slices are pointer-shaped
}

func (s *Stream) newBatch(size int) []dedup.Pair {
	if b, ok := s.pool.Get().([]dedup.Pair); ok && cap(b) >= size {
		return b[:0]
	}
	return make([]dedup.Pair, 0, size)
}

// GenerateStream runs the configured passes sharded across cfg.Workers
// and emits the deduplicated union of their candidate pairs, sorted by
// (I, J), as bounded batches on the returned Stream. The concatenation of
// all batches — and the Stats — is bit-identical to GenerateSeq for any
// worker count, but the full union is never materialized: peak memory is
// O(records) per SNM pass plus the in-flight batches.
func GenerateStream(ds *dedup.Dataset, cfg Config, opts StreamOpts) *Stream {
	ch := make(chan []dedup.Pair, opts.buffer())
	s := &Stream{C: ch, fin: make(chan struct{})}
	go s.produce(ds, cfg, opts.batchSize(), ch)
	return s
}

// snmSource enumerates one Sorted-Neighborhood pass's pairs directly in
// (I, J) order with O(records) state. Within a pass, pair {i, j} exists
// iff the sorted positions of i and j are within window-1 of each other;
// since every record holds exactly one position, walking records in
// ascending id and collecting each record's higher-id window partners
// (sorted) yields the pass's exact pair multiset — same pairs, same count
// as the materialized pass — without ever building it.
type snmSource struct {
	order  []int
	pos    []int
	window int
	n      int

	i   int   // current record id (the pair's I)
	buf []int // sorted higher-id partners of record i
	bi  int
	cur dedup.Pair
	ok  bool
}

// newSNMSource runs the pass's parallel key derivation and sort, builds
// the inverse permutation, and primes the iterator. pairs is the pass's
// total emission count — a pure function of the record count and window.
func newSNMSource(ds *dedup.Dataset, key KeyFunc, window, workers int) (src *snmSource, pairs int) {
	n := len(ds.Records)
	keys := make([]string, n)
	parallelRanges(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			keys[i] = key(ds.Records[i])
		}
	})
	order := sortOrderParallel(keys, workers)
	pos := make([]int, n)
	parallelRanges(n, workers, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			pos[order[x]] = x
		}
	})
	for x := 0; x < n; x++ {
		w := window - 1
		if rest := n - 1 - x; rest < w {
			w = rest
		}
		pairs += w
	}
	src = &snmSource{order: order, pos: pos, window: window, n: n, i: -1, buf: make([]int, 0, 2*(window-1))}
	src.fill()
	return src, pairs
}

func (s *snmSource) head() (dedup.Pair, bool) { return s.cur, s.ok }

func (s *snmSource) advance() {
	s.bi++
	s.fill()
}

// fill advances to the next pair: the next buffered partner of the current
// record, else the first partner of the next record that has any.
func (s *snmSource) fill() {
	for s.bi >= len(s.buf) {
		s.i++
		if s.i >= s.n {
			s.ok = false
			s.order, s.pos, s.buf = nil, nil, nil
			return
		}
		p := s.pos[s.i]
		lo := p - (s.window - 1)
		if lo < 0 {
			lo = 0
		}
		hi := p + (s.window - 1)
		if hi > s.n-1 {
			hi = s.n - 1
		}
		s.buf = s.buf[:0]
		for y := lo; y <= hi; y++ {
			if y == p {
				continue
			}
			if j := s.order[y]; j > s.i {
				s.buf = append(s.buf, j)
			}
		}
		sort.Ints(s.buf)
		s.bi = 0
	}
	s.cur = dedup.Pair{I: s.i, J: s.buf[s.bi]}
	s.ok = true
}

// produce builds the pass sources, merges them and emits batches until the
// stream is drained.
func (s *Stream) produce(ds *dedup.Dataset, cfg Config, batchSize int, ch chan<- []dedup.Pair) {
	start := time.Now()
	workers := cfg.workers()
	stats := Stats{Records: len(ds.Records)}

	var srcs []*snmSource
	for _, p := range cfg.Passes {
		w := cfg.window()
		src, pairs := newSNMSource(ds, p.Key, w, workers)
		stats.SNMPasses = append(stats.SNMPasses, PassStats{Name: p.Name, Window: w, Pairs: pairs})
		stats.Emitted += pairs
		if _, ok := src.head(); ok {
			srcs = append(srcs, src)
		}
	}

	batch := s.newBatch(batchSize)
	var last dedup.Pair
	haveLast := false
	emit := func() {
		if backlog := int64(len(ch)); backlog > s.backlog {
			s.backlog = backlog
		}
		t := time.Now()
		ch <- batch
		s.blocked += time.Since(t)
		s.batches++
	}
	for {
		best := -1
		var bestPair dedup.Pair
		for i, src := range srcs {
			p, ok := src.head()
			if !ok {
				continue
			}
			if best < 0 || pairLess(p, bestPair) {
				best, bestPair = i, p
			}
		}
		if best < 0 {
			break
		}
		srcs[best].advance()
		if haveLast && bestPair == last {
			continue
		}
		last, haveLast = bestPair, true
		stats.Unique++
		batch = append(batch, bestPair)
		if len(batch) == batchSize {
			emit()
			batch = s.newBatch(batchSize)
		}
	}
	if len(batch) > 0 {
		emit()
	}
	// Report before closing C: the channel close is the consumer's only
	// completion signal, so counters must be published before it fires.
	report(cfg.Observer, stats)
	counter.Add(cfg.Observer, "blocking_stream_batches", s.batches)
	counter.Add(cfg.Observer, "blocking_stream_pairs", int64(stats.Unique))
	counter.Add(cfg.Observer, "blocking_stream_peak_backlog", s.backlog)
	close(ch)

	s.stats = stats
	s.elapsed = time.Since(start)
	close(s.fin)
}
