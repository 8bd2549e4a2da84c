package blocking

import (
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/dedup"
	"repro/internal/obs"
)

// collect drains a stream into one slice, optionally recycling batches.
func collect(t *testing.T, s *Stream, recycle bool) ([]dedup.Pair, []int) {
	t.Helper()
	var pairs []dedup.Pair
	var sizes []int
	for batch := range s.C {
		pairs = append(pairs, batch...)
		sizes = append(sizes, len(batch))
		if recycle {
			s.Recycle(batch)
		}
	}
	return pairs, sizes
}

// TestStreamMatchesSequential is the streaming differential: the
// concatenated batches and the Stats must equal GenerateSeq bit for bit at
// every ladder worker count and across batch-size/buffer shapes.
func TestStreamMatchesSequential(t *testing.T) {
	ds := testDataset(7, 120)
	wantPairs, wantStats := GenerateSeq(ds, testConfig(ds, 1))
	if wantStats.Emitted <= wantStats.Unique {
		t.Fatalf("passes never overlap (emitted %d, unique %d): the merge's dedupe goes unexercised",
			wantStats.Emitted, wantStats.Unique)
	}
	shapes := []StreamOpts{
		{},
		{BatchSize: 1},
		{BatchSize: 3, Buffer: -1},
		{BatchSize: 4096, Buffer: 16},
	}
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		for _, opts := range shapes {
			s := GenerateStream(ds, testConfig(ds, workers), opts)
			gotPairs, sizes := collect(t, s, true)
			if !reflect.DeepEqual(wantPairs, gotPairs) {
				t.Fatalf("workers=%d opts=%+v: stream diverges from sequential reference (%d vs %d pairs)",
					workers, opts, len(gotPairs), len(wantPairs))
			}
			if got := s.Stats(); !reflect.DeepEqual(wantStats, got) {
				t.Fatalf("workers=%d opts=%+v: stats diverge: %+v vs %+v", workers, opts, got, wantStats)
			}
			want := opts.batchSize()
			for k, n := range sizes {
				if n > want || n == 0 {
					t.Fatalf("batch %d has %d pairs, want 1..%d", k, n, want)
				}
				if k < len(sizes)-1 && n != want {
					t.Fatalf("non-final batch %d has %d pairs, want exactly %d", k, n, want)
				}
			}
			if s.Elapsed() <= 0 {
				t.Fatalf("Elapsed() = %v, want > 0", s.Elapsed())
			}
		}
	}
}

// TestStreamEmptyDataset: an empty corpus closes C without a batch and
// still reports the pass structure in Stats.
func TestStreamEmptyDataset(t *testing.T) {
	empty := &dedup.Dataset{Name: "empty", Attrs: []string{"a"}}
	cfg := Config{Passes: EntropyPasses(empty, 1), Workers: 4}
	s := GenerateStream(empty, cfg, StreamOpts{})
	pairs, sizes := collect(t, s, false)
	if len(pairs) != 0 || len(sizes) != 0 {
		t.Fatalf("empty corpus emitted %d batches / %d pairs", len(sizes), len(pairs))
	}
	_, wantStats := GenerateSeq(empty, cfg)
	if got := s.Stats(); !reflect.DeepEqual(wantStats, got) {
		t.Fatalf("stats diverge on empty corpus: %+v vs %+v", got, wantStats)
	}
}

// TestStreamObserverCounters: a completed stream reports the blocking_*
// family plus the blocking_stream_* extension.
func TestStreamObserverCounters(t *testing.T) {
	ds := testDataset(17, 60)
	m := obs.NewMetrics()
	cfg := testConfig(ds, 2)
	cfg.Observer = m
	s := GenerateStream(ds, cfg, StreamOpts{BatchSize: 64})
	pairs, sizes := collect(t, s, false)
	if m.Counter("blocking_stream_batches") != int64(len(sizes)) {
		t.Errorf("blocking_stream_batches = %d, want %d", m.Counter("blocking_stream_batches"), len(sizes))
	}
	if m.Counter("blocking_stream_pairs") != int64(len(pairs)) {
		t.Errorf("blocking_stream_pairs = %d, want %d", m.Counter("blocking_stream_pairs"), len(pairs))
	}
	if m.Counter("blocking_pairs_unique") != int64(len(pairs)) {
		t.Errorf("blocking_pairs_unique = %d, want %d", m.Counter("blocking_pairs_unique"), len(pairs))
	}
	if m.Counter("blocking_runs") != 1 {
		t.Errorf("blocking_runs = %d, want 1", m.Counter("blocking_runs"))
	}
}

// TestStreamBackpressure: with an unbuffered channel and a slow consumer,
// the producer never runs ahead — peak backlog stays 0 and every batch but
// the last is exactly full.
func TestStreamBackpressure(t *testing.T) {
	ds := testDataset(5, 80)
	s := GenerateStream(ds, testConfig(ds, 2), StreamOpts{BatchSize: 16, Buffer: -1})
	n := 0
	for batch := range s.C {
		n += len(batch)
		s.Recycle(batch)
	}
	s.Stats()
	if s.backlog != 0 {
		t.Fatalf("unbuffered stream recorded backlog %d, want 0", s.backlog)
	}
	if want, _ := GenerateSeq(ds, testConfig(ds, 1)); n != len(want) {
		t.Fatalf("drained %d pairs, want %d", n, len(want))
	}
}

// TestSNMSourceMatchesPass: the windowed iterator must enumerate exactly
// the materialized pass's pair multiset (sorted on both sides), and its
// pair count must equal the pass emission count.
func TestSNMSourceMatchesPass(t *testing.T) {
	ds := testDataset(29, 90)
	for _, pass := range EntropyPasses(ds, 3) {
		for _, window := range []int{2, 6, 20, len(ds.Records) + 5} {
			want := snmPassSeq(ds, pass.Key, window)
			wantSorted := append([]dedup.Pair(nil), want...)
			sort.Slice(wantSorted, func(x, y int) bool { return pairLess(wantSorted[x], wantSorted[y]) })

			src, pairs := newSNMSource(ds, pass.Key, window, 3)
			if pairs != len(want) {
				t.Fatalf("pass %q window %d: count %d, want %d", pass.Name, window, pairs, len(want))
			}
			var got []dedup.Pair
			for {
				p, ok := src.head()
				if !ok {
					break
				}
				got = append(got, p)
				src.advance()
			}
			// The iterator emits each pair once in sorted order; the
			// materialized pass cannot repeat a pair within one pass, so
			// sorting it yields the same sequence.
			if !reflect.DeepEqual(wantSorted, got) {
				t.Fatalf("pass %q window %d: iterator diverges (%d vs %d pairs)",
					pass.Name, window, len(got), len(wantSorted))
			}
			for k := 1; k < len(got); k++ {
				if !pairLess(got[k-1], got[k]) {
					t.Fatalf("pass %q: iterator out of order at %d: %v then %v",
						pass.Name, k, got[k-1], got[k])
				}
			}
		}
	}
}

// TestStreamBusyExcludesBlockedSends: behind a consumer that sleeps on
// every batch, the producer spends most of its lifetime blocked in sends,
// so Busy must stay far below Elapsed.
func TestStreamBusyExcludesBlockedSends(t *testing.T) {
	ds := testDataset(5, 80)
	s := GenerateStream(ds, testConfig(ds, 2), StreamOpts{BatchSize: 32, Buffer: -1})
	batches := 0
	for batch := range s.C {
		batches++
		time.Sleep(time.Millisecond)
		s.Recycle(batch)
	}
	if batches < 20 {
		t.Fatalf("only %d batches; the test needs a long stream", batches)
	}
	if busy, life := s.Busy(), s.Elapsed(); busy <= 0 || 2*busy > life {
		t.Fatalf("Busy() = %v of Elapsed() = %v behind a sleeping consumer, want under half", busy, life)
	}
}
