package dedup_test

import (
	"reflect"
	"testing"

	"repro/internal/blocking"
	. "repro/internal/dedup"
)

// Edge cases of the multi-pass Sorted Neighborhood Method as the scorers of
// this package receive it from blocking.Generate: degenerate windows,
// degenerate corpora and degenerate keys, pinned on literal pair sets.

// snm runs one raw-value SNM pass per attribute index.
func snm(ds *Dataset, attrs []int, window int) []Pair {
	passes := make([]blocking.Pass, len(attrs))
	for i, a := range attrs {
		passes[i] = blocking.Pass{Name: ds.Attrs[a], Key: func(rec []string) string { return rec[a] }}
	}
	pairs, _ := blocking.Generate(ds, blocking.Config{Passes: passes, Window: window})
	return pairs
}

func snmDataset(records [][]string) *Dataset {
	clusters := make([]int, len(records))
	for i := range clusters {
		clusters[i] = i
	}
	return &Dataset{
		Name:      "edge",
		Attrs:     []string{"a", "b"},
		Records:   records,
		ClusterOf: clusters,
	}
}

func TestSNMEmptyCorpus(t *testing.T) {
	ds := snmDataset(nil)
	if got := snm(ds, []int{0}, 20); len(got) != 0 {
		t.Errorf("empty corpus produced %d pairs", len(got))
	}
}

func TestSNMSingleRecord(t *testing.T) {
	ds := snmDataset([][]string{{"x", "y"}})
	if got := snm(ds, []int{0, 1}, 20); len(got) != 0 {
		t.Errorf("single record produced %d pairs", len(got))
	}
}

// A window at least as large as the dataset degenerates to the full
// quadratic candidate set — every pair is inside every slide.
func TestSNMWindowLargerThanDataset(t *testing.T) {
	ds := snmDataset([][]string{{"d", "1"}, {"b", "2"}, {"a", "3"}, {"c", "4"}})
	for _, window := range []int{4, 5, 100} {
		got := snm(ds, []int{0}, window)
		if want := AllPairs(4); !reflect.DeepEqual(got, want) {
			t.Errorf("window %d: got %v, want the full cross %v", window, got, want)
		}
	}
}

// All-equal keys make the sort a no-op; the window must still slide over
// the (stable) input order and nothing may collapse or duplicate.
func TestSNMAllEqualKeys(t *testing.T) {
	records := make([][]string, 6)
	for i := range records {
		records[i] = []string{"same", "same"}
	}
	ds := snmDataset(records)
	got := snm(ds, []int{0, 1}, 3)
	// Window 3 over 6 positions: (0,1),(0,2),(1,2),(1,3),... — 9 unique
	// pairs, identical for both passes, so the deduplicated union is 9.
	want := []Pair{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {3, 5}, {4, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("all-equal keys: got %v, want %v", got, want)
	}
}

// Window sizes below 2 clamp to 2 (a window of 1 would emit nothing and
// silently disable blocking; 0 selects the default window).
func TestSNMWindowClampsToTwo(t *testing.T) {
	ds := snmDataset([][]string{{"a", ""}, {"b", ""}, {"c", ""}})
	want := snm(ds, []int{0}, 2)
	for _, window := range []int{-3, -1, 1} {
		if got := snm(ds, []int{0}, window); !reflect.DeepEqual(got, want) {
			t.Errorf("window %d: got %v, want the window-2 result %v", window, got, want)
		}
	}
	if len(want) != 2 {
		t.Errorf("window 2 over 3 sorted records should emit 2 adjacent pairs, got %v", want)
	}
}

// No passes, no candidates: the pass union is empty, not all-pairs.
func TestSNMNoPasses(t *testing.T) {
	ds := snmDataset([][]string{{"a", "1"}, {"b", "2"}})
	if got := snm(ds, nil, 20); len(got) != 0 {
		t.Errorf("zero passes produced %d pairs", len(got))
	}
}

// Output is always sorted by (I, J) and duplicate-free, whatever the pass
// overlap, so each candidate is scored exactly once.
func TestSNMOutputSortedUnique(t *testing.T) {
	ds := snmDataset([][]string{
		{"smith", "1"}, {"smith", "2"}, {"jones", "1"}, {"jones", "2"}, {"smith", "1"},
	})
	got := snm(ds, []int{0, 1}, 3)
	for k := 1; k < len(got); k++ {
		prev, cur := got[k-1], got[k]
		if cur.I < prev.I || (cur.I == prev.I && cur.J <= prev.J) {
			t.Fatalf("output not strictly (I,J)-sorted at %d: %v then %v", k, prev, cur)
		}
	}
	for _, p := range got {
		if p.I >= p.J {
			t.Fatalf("pair %v violates I < J", p)
		}
	}
}
