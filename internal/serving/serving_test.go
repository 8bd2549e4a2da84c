package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/hetero"
	"repro/internal/obs"
	"repro/internal/plaus"
	"repro/internal/synth"
)

func testDataset(t *testing.T) *core.Dataset {
	t.Helper()
	cfg := synth.DefaultConfig(23, 120)
	cfg.Snapshots = synth.Calendar(2010, 3)
	ds := core.NewDataset(core.RemoveTrimmed)
	for _, s := range synth.Generate(cfg) {
		ds.ImportSnapshot(s)
	}
	plaus.Update(ds)
	hetero.Update(ds)
	ds.Publish()
	return ds
}

func TestSourceLifecycle(t *testing.T) {
	m := obs.NewMetrics()
	src := NewSource(m)
	if src.Current() != nil || src.Generation() != 0 {
		t.Fatal("fresh source is not empty")
	}
	ds := testDataset(t)
	s1 := Build(ds, BuildOpts{})
	if gen := src.Swap(s1); gen != 1 || s1.Generation() != 1 {
		t.Fatalf("first swap: gen %d, stamped %d", gen, s1.Generation())
	}
	if src.Current() != s1 || src.Generation() != 1 {
		t.Fatal("current snapshot not published")
	}
	s2 := Build(ds, BuildOpts{})
	if gen := src.Swap(s2); gen != 2 {
		t.Fatalf("second swap: gen %d", gen)
	}
	if src.Current() != s2 {
		t.Fatal("swap did not replace the snapshot")
	}
	if got := m.Counter(CounterSwaps); got != 2 {
		t.Fatalf("swap counter = %d", got)
	}
}

func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	ds := testDataset(t)
	ref := Build(ds, BuildOpts{Workers: 1})
	for _, workers := range []int{2, 3, 4, 7, 0} {
		got := Build(ds, BuildOpts{Workers: workers})
		if !bytes.Equal(got.Stats(), ref.Stats()) {
			t.Errorf("workers=%d: stats diverged", workers)
		}
		gotSum, refSum := got.Summary(SizeBounds{}), ref.Summary(SizeBounds{})
		if !bytes.Equal(gotSum.(json.RawMessage), refSum.(json.RawMessage)) {
			t.Errorf("workers=%d: summary diverged", workers)
		}
		if len(got.views) != len(ref.views) {
			t.Fatalf("workers=%d: %d record views, want %d", workers, len(got.views), len(ref.views))
		}
		for _, ncid := range ds.NCIDs() {
			g, _ := got.RecordView(ncid)
			r, _ := ref.RecordView(ncid)
			if !bytes.Equal(g, r) {
				t.Fatalf("workers=%d: record view %s diverged", workers, ncid)
			}
		}
		if !reflect.DeepEqual(got.rows, ref.rows) {
			t.Errorf("workers=%d: summary rows diverged", workers)
		}
		if !reflect.DeepEqual(got.tables, ref.tables) {
			t.Errorf("workers=%d: score tables diverged", workers)
		}
	}
}

func TestSnapshotRecordView(t *testing.T) {
	ds := testDataset(t)
	snap := Build(ds, BuildOpts{})
	if len(snap.views) != ds.NumClusters() {
		t.Fatalf("record views = %d, clusters = %d", len(snap.views), ds.NumClusters())
	}
	ncid := ds.NCIDs()[0]
	raw, ok := snap.RecordView(ncid)
	if !ok {
		t.Fatalf("record view %s missing", ncid)
	}
	var view map[string]any
	if err := json.Unmarshal(raw, &view); err != nil {
		t.Fatal(err)
	}
	if view["ncid"] != ncid {
		t.Errorf("view ncid = %v", view["ncid"])
	}
	if _, ok := view["records"]; !ok {
		t.Error("view misses records")
	}
	if _, ok := view["meta"]; ok {
		t.Error("view leaks the reproducibility meta block")
	}
	if _, ok := snap.RecordView("NOPE"); ok {
		t.Error("unknown ncid resolved")
	}
}

func TestSummaryBoundsMatchFullFold(t *testing.T) {
	ds := testDataset(t)
	snap := Build(ds, BuildOpts{})

	// The filtered fold over the size table must agree with a naive filter
	// over the same rows.
	for _, tc := range []SizeBounds{
		{},
		{Min: 2, HasMin: true},
		{Max: 3, HasMax: true},
		{Min: 2, Max: 5, HasMin: true, HasMax: true},
		{Min: 99999, HasMin: true},
		{Min: 5, Max: 2, HasMin: true, HasMax: true}, // inverted → empty
	} {
		var naive SummaryAccumulator
		for _, e := range snap.rows {
			if tc.HasMin && e.Size < tc.Min {
				continue
			}
			if tc.HasMax && e.Size > tc.Max {
				continue
			}
			naive.Add(e.Size, e.Plaus, e.HasPlaus, e.Hetero, e.HasHetero)
		}
		got := snap.foldSummary(tc)
		if !reflect.DeepEqual(got, naive.Payload()) {
			t.Errorf("bounds %+v: fold diverged:\n%v\nvs\n%v", tc, got, naive.Payload())
		}
	}

	// Unbounded Summary returns the precomputed marshal of the same fold.
	raw, ok := snap.Summary(SizeBounds{}).(json.RawMessage)
	if !ok {
		t.Fatal("unbounded summary is not precomputed")
	}
	fresh := mustMarshal(snap.foldSummary(SizeBounds{}))
	if !bytes.Equal(raw, fresh) {
		t.Error("precomputed summary diverged from a fresh fold")
	}
}

func TestResponseCacheLRU(t *testing.T) {
	m := obs.NewMetrics()
	c := NewResponseCache(2, m)
	key := func(i int) CacheKey {
		return CacheKey{Generation: 1, Resource: fmt.Sprintf("GET /v1/x?i=%d", i)}
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(key(1), CachedResponse{Status: 200, Body: []byte("one")})
	c.Put(key(2), CachedResponse{Status: 200, Body: []byte("two")})
	if resp, ok := c.Get(key(1)); !ok || string(resp.Body) != "one" {
		t.Fatalf("get(1) = %v %q", ok, resp.Body)
	}
	// 1 was just used, so inserting 3 must evict 2.
	c.Put(key(3), CachedResponse{Status: 200, Body: []byte("three")})
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("LRU kept the stale entry")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("LRU evicted the recently used entry")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	// Same resource under a new generation is a distinct key.
	if _, ok := c.Get(CacheKey{Generation: 2, Resource: key(1).Resource}); ok {
		t.Fatal("generation is not part of the key")
	}
	// Update-in-place refreshes the value without eviction.
	c.Put(key(1), CachedResponse{Status: 200, Body: []byte("uno")})
	if resp, _ := c.Get(key(1)); string(resp.Body) != "uno" {
		t.Fatalf("update lost: %q", resp.Body)
	}
	if got := m.Counter(CounterCacheEvictions); got != 1 {
		t.Fatalf("evictions = %d", got)
	}
	if hits, misses := m.Counter(CounterCacheHits), m.Counter(CounterCacheMisses); hits != 3 || misses != 3 {
		t.Fatalf("hits/misses = %d/%d", hits, misses)
	}
}

func TestSummaryAccumulatorOrderIndependent(t *testing.T) {
	obs := [][3]float64{{2, 0.9, 0.1}, {5, 0.2, 0.8}, {1, 0.5, 0.5}, {9, 0.7, 0.3}}
	var fwd, rev SummaryAccumulator
	for _, o := range obs {
		fwd.Add(int64(o[0]), o[1], true, o[2], true)
	}
	for i := len(obs) - 1; i >= 0; i-- {
		o := obs[i]
		rev.Add(int64(o[0]), o[1], true, o[2], true)
	}
	if !reflect.DeepEqual(fwd.Payload(), rev.Payload()) {
		t.Fatal("accumulator is order-sensitive")
	}
	var empty SummaryAccumulator
	p := empty.Payload()
	if p["clusters"].(int64) != 0 {
		t.Fatalf("empty payload: %v", p)
	}
	if _, ok := p["size"]; ok {
		t.Error("empty payload renders a size block")
	}
}

// naiveRange lists the rows that have the score and lie in the range, by a
// stable sort of the first-seen order — the definition ClusterPage's tables
// and binary searches implement.
func naiveRange(rows []ClusterSummary, by Score, r ScoreRange) []ClusterSummary {
	var out []ClusterSummary
	for _, e := range rows {
		v, ok := e.score(by)
		if !ok || r.HasMin && v < r.Min || r.HasMax && v > r.Max {
			continue
		}
		out = append(out, e)
	}
	sort.SliceStable(out, func(i, j int) bool {
		vi, _ := out[i].score(by)
		vj, _ := out[j].score(by)
		return vi < vj
	})
	return out
}

func TestClusterPageWalksEveryRange(t *testing.T) {
	ds := testDataset(t)
	snap := Build(ds, BuildOpts{})
	var unscored string
	for _, e := range snap.rows {
		if !e.HasPlaus {
			unscored = e.NCID
		}
	}
	if unscored == "" {
		t.Fatal("corpus has no cluster lacking a score")
	}
	for _, by := range []Score{BySize, ByPlausibility, ByHeterogeneity} {
		for _, r := range []ScoreRange{
			{},
			{Min: 2, HasMin: true},
			{Max: 0.9, HasMax: true},
			{Min: 0.1, Max: 3, HasMin: true, HasMax: true},
			{Min: 5, Max: 2, HasMin: true, HasMax: true}, // inverted → empty
		} {
			want := naiveRange(snap.rows, by, r)
			for _, limit := range []int{1, 4, 1000} {
				var walked []ClusterSummary
				for afterID, pages := "", 0; ; pages++ {
					if pages > len(want) {
						t.Fatalf("score %d range %+v limit %d: pagination does not terminate", by, r, limit)
					}
					page, next, total, err := snap.ClusterPage(by, r, afterID, limit)
					if err != nil {
						t.Fatalf("score %d range %+v after %q: %v", by, r, afterID, err)
					}
					if total != len(want) || len(page) > limit {
						t.Fatalf("score %d range %+v: total %d (want %d), page of %d at limit %d",
							by, r, total, len(want), len(page), limit)
					}
					walked = append(walked, page...)
					if afterID = next; next == "" {
						break
					}
				}
				if !reflect.DeepEqual(walked, want) {
					t.Fatalf("score %d range %+v limit %d: walked %d rows, want %d in another order or set",
						by, r, limit, len(walked), len(want))
				}
			}
		}
	}
	if _, _, total, _ := snap.ClusterPage(BySize, ScoreRange{}, "", 0); total != ds.NumClusters() {
		t.Errorf("limit 0 total = %d, want %d", total, ds.NumClusters())
	}
	for _, tc := range []struct {
		by Score
		id string
	}{{BySize, "NOPE"}, {ByPlausibility, unscored}} {
		if _, _, _, err := snap.ClusterPage(tc.by, ScoreRange{}, tc.id, 5); !errors.Is(err, ErrBadCursor) {
			t.Errorf("cursor %q on score %d: err = %v, want ErrBadCursor", tc.id, tc.by, err)
		}
	}
}

func TestClusterDoc(t *testing.T) {
	ds := testDataset(t)
	snap := Build(ds, BuildOpts{})
	ncid := ds.NCIDs()[0]
	raw, ok, err := snap.ClusterDoc(ncid)
	if !ok || err != nil {
		t.Fatalf("cluster doc %s: ok=%v err=%v", ncid, ok, err)
	}
	want, err := json.Marshal(ds.ToDocDB().Collection(core.ClustersCollection).Get(ncid))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Errorf("cluster doc diverged from the marshaled document:\n got %s\nwant %s", raw, want)
	}
	if _, ok, _ := snap.ClusterDoc("NOPE"); ok {
		t.Error("unknown ncid resolved")
	}
}
