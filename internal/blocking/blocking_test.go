package blocking

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/dedup"
	"repro/internal/obs"
)

// testDataset builds a small labeled dataset with injected duplicates:
// clusters of 1-4 noisy copies of a base record over name/city/zip
// attributes. Deterministic in seed.
func testDataset(seed int64, clusters int) *dedup.Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &dedup.Dataset{
		Name:      "blocktest",
		Attrs:     []string{"last_name", "first_name", "city", "zip"},
		NameAttrs: []int{0, 1},
	}
	lasts := []string{"MILLER", "SMITH", "JOHNSON", "GARCIA", "WILLIAMS", "DAVIS", "LOPEZ", "WILSON"}
	firsts := []string{"JAMES", "MARY", "ROBERT", "LINDA", "DAVID", "SUSAN", "PAUL", "KAREN"}
	cities := []string{"RALEIGH", "DURHAM", "CARY", "WILSON", "APEX"}
	corrupt := func(s string) string {
		if len(s) < 2 || rng.Intn(3) > 0 {
			return s
		}
		b := []byte(s)
		switch rng.Intn(3) {
		case 0: // substitution
			b[rng.Intn(len(b))] = byte('A' + rng.Intn(26))
		case 1: // transposition
			i := rng.Intn(len(b) - 1)
			b[i], b[i+1] = b[i+1], b[i]
		case 2: // deletion
			i := rng.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		}
		return string(b)
	}
	for c := 0; c < clusters; c++ {
		base := []string{
			lasts[rng.Intn(len(lasts))] + fmt.Sprintf("%02d", rng.Intn(100)),
			firsts[rng.Intn(len(firsts))],
			cities[rng.Intn(len(cities))],
			fmt.Sprintf("27%03d", rng.Intn(1000)),
		}
		n := 1 + rng.Intn(4)
		for v := 0; v < n; v++ {
			rec := make([]string, len(base))
			copy(rec, base)
			if v > 0 {
				at := rng.Intn(len(rec))
				rec[at] = corrupt(rec[at])
			}
			ds.Records = append(ds.Records, rec)
			ds.ClusterOf = append(ds.ClusterOf, c)
		}
	}
	return ds
}

func testConfig(ds *dedup.Dataset, workers int) Config {
	passes, err := ParsePasses(ds, "last_name+zip, soundex(last_name), prefix(first_name,3)+city")
	if err != nil {
		panic(err)
	}
	return Config{
		Passes:  passes,
		Window:  6,
		Workers: workers,
	}
}

// TestBlockingParallelMatchesSequential is the package-local differential:
// Generate (the drained stream) must equal GenerateSeq — pairs and stats —
// at every ladder worker count. The testkit conformance oracle re-runs this
// over the shared seeded corpus.
func TestBlockingParallelMatchesSequential(t *testing.T) {
	ds := testDataset(7, 120)
	wantPairs, wantStats := GenerateSeq(ds, testConfig(ds, 1))
	if wantStats.Emitted <= wantStats.Unique {
		t.Fatalf("passes never overlap (emitted %d, unique %d): the cross-pass dedupe goes unexercised",
			wantStats.Emitted, wantStats.Unique)
	}
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		gotPairs, gotStats := Generate(ds, testConfig(ds, workers))
		if !reflect.DeepEqual(wantPairs, gotPairs) {
			t.Fatalf("workers=%d: pair set diverges from sequential reference (%d vs %d pairs)",
				workers, len(gotPairs), len(wantPairs))
		}
		if !reflect.DeepEqual(wantStats, gotStats) {
			t.Fatalf("workers=%d: stats diverge: %+v vs %+v", workers, gotStats, wantStats)
		}
	}
}

// TestGenerateSortedUnique asserts the output contract: pairs sorted by
// (I, J), no duplicates, I < J.
func TestGenerateSortedUnique(t *testing.T) {
	ds := testDataset(11, 80)
	pairs, stats := Generate(ds, testConfig(ds, 4))
	if len(pairs) == 0 {
		t.Fatal("no candidates generated")
	}
	for k, p := range pairs {
		if p.I >= p.J {
			t.Fatalf("pair %d: I=%d >= J=%d", k, p.I, p.J)
		}
		if k > 0 && !pairLess(pairs[k-1], p) {
			t.Fatalf("pairs out of order at %d: %v then %v", k, pairs[k-1], p)
		}
	}
	if stats.Unique != len(pairs) {
		t.Fatalf("stats.Unique=%d, want %d", stats.Unique, len(pairs))
	}
	if stats.Emitted < stats.Unique {
		t.Fatalf("emitted %d < unique %d", stats.Emitted, stats.Unique)
	}
}

// TestBlockingEdgeCases covers the degenerate shapes: empty corpus, a
// single record, all-equal keys and a window larger than the dataset. On
// each, Generate must equal GenerateSeq — pairs and stats — and report the
// blocking_pipeline_total counters exactly once.
func TestBlockingEdgeCases(t *testing.T) {
	empty := &dedup.Dataset{Name: "empty", Attrs: []string{"a"}}
	single := &dedup.Dataset{Name: "single", Attrs: []string{"a"}, Records: [][]string{{"x"}}, ClusterOf: []int{0}}
	eq := &dedup.Dataset{Name: "equal", Attrs: []string{"a"}}
	for i := 0; i < 9; i++ {
		eq.Records = append(eq.Records, []string{"same"})
		eq.ClusterOf = append(eq.ClusterOf, i)
	}
	for _, tc := range []struct {
		ds        *dedup.Dataset
		cfg       Config
		wantPairs int
	}{
		{empty, Config{Passes: EntropyPasses(empty, 1), Workers: 4}, 0},
		{single, Config{Passes: EntropyPasses(single, 1), Workers: 4}, 0},
		{eq, Config{Passes: EntropyPasses(eq, 1), Window: 4, Workers: 2}, 21},
	} {
		wantPairs, wantStats := GenerateSeq(tc.ds, tc.cfg)
		m := obs.NewMetrics()
		tc.cfg.Observer = m
		pairs, stats := Generate(tc.ds, tc.cfg)
		if len(pairs) != tc.wantPairs || stats.Unique != tc.wantPairs {
			t.Fatalf("%s: %d pairs (stats.Unique %d), want %d", tc.ds.Name, len(pairs), stats.Unique, tc.wantPairs)
		}
		if !reflect.DeepEqual(wantPairs, pairs) {
			t.Fatalf("%s: pairs %v != sequential %v", tc.ds.Name, pairs, wantPairs)
		}
		if !reflect.DeepEqual(wantStats, stats) {
			t.Fatalf("%s: stats %+v != sequential %+v", tc.ds.Name, stats, wantStats)
		}
		if m.Counter("blocking_runs") != 1 || m.Counter("blocking_records") != int64(len(tc.ds.Records)) ||
			m.Counter("blocking_pairs_unique") != int64(tc.wantPairs) {
			t.Fatalf("%s: blocking_pipeline_total not reported exactly once: %v", tc.ds.Name, m.Snapshot().Counters)
		}
	}

	ds := testDataset(5, 10)
	n := len(ds.Records)
	all := n * (n - 1) / 2
	pairs, _ := Generate(ds, Config{Passes: EntropyPasses(ds, 1), Window: n + 50, Workers: 3})
	if len(pairs) != all {
		t.Fatalf("window > dataset: got %d pairs, want the full cross %d", len(pairs), all)
	}
}

// TestSortChunks pins the one chunk-sort/merge routine to sort.SliceStable
// on inputs with many equal keys: under the (key, index) total order the
// result must be the stable order at any worker count, including more
// workers than elements.
func TestSortChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 2, 50, 257} {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = rng.Intn(5)
		}
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(x, y int) bool { return keys[want[x]] < keys[want[y]] })
		for _, workers := range []int{1, 2, 7, n + 3} {
			got := rng.Perm(n)
			sortChunks(got, workers, func(a, b int) bool {
				if keys[a] != keys[b] {
					return keys[a] < keys[b]
				}
				return a < b
			})
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("n=%d workers=%d: %v, want %v", n, workers, got, want)
			}
		}
	}
}

// TestWindowClamp asserts windows below 2 clamp to 2 (a window of 1 emits
// nothing and would silently disable a pass).
func TestWindowClamp(t *testing.T) {
	ds := testDataset(9, 20)
	got, _ := Generate(ds, Config{Passes: EntropyPasses(ds, 1), Window: 1, Workers: 2})
	want, _ := Generate(ds, Config{Passes: EntropyPasses(ds, 1), Window: 2, Workers: 2})
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("window=1 did not clamp to 2")
	}
}

// TestObserverCounters asserts the blocking_* family reaches the observer.
func TestObserverCounters(t *testing.T) {
	ds := testDataset(17, 60)
	m := obs.NewMetrics()
	Generate(ds, Config{
		Passes:   EntropyPasses(ds, 2),
		Workers:  2,
		Observer: m,
	})
	for _, c := range []string{"blocking_runs", "blocking_records", "blocking_snm_passes", "blocking_pairs_emitted", "blocking_pairs_unique"} {
		if m.Counter(c) == 0 {
			t.Errorf("counter %s not reported", c)
		}
	}
	if m.Counter("blocking_snm_passes") != 2 {
		t.Errorf("blocking_snm_passes = %d, want 2", m.Counter("blocking_snm_passes"))
	}
	if m.Counter("blocking_runs") != 1 {
		t.Errorf("blocking_runs = %d, want exactly one report", m.Counter("blocking_runs"))
	}
}

// TestRecallOnInjectedDuplicates: the multi-pass configuration must
// cover nearly all injected duplicate pairs — the paper's "no true
// duplicates lost" claim at test scale.
func TestRecallOnInjectedDuplicates(t *testing.T) {
	ds := testDataset(23, 200)
	pairs, _ := Generate(ds, testConfig(ds, 4))
	if r := Recall(ds, pairs); r < 0.95 {
		t.Fatalf("recall %.3f < 0.95 on injected duplicates", r)
	}
}
