package docstore

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetDottedPaths(t *testing.T) {
	d := D("meta", D("counts", D("a", 3)))
	v, ok := Get(d, "meta.counts.a")
	if !ok || v != 3 {
		t.Fatalf("Get = %v, %v", v, ok)
	}
	if _, ok := Get(d, "meta.missing"); ok {
		t.Error("Get found a missing path")
	}
	if _, ok := Get(d, "meta.counts.a.b"); ok {
		t.Error("Get descended through a scalar")
	}
}

func insertN(t *testing.T, c *Collection, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		doc := D("_id", fmt.Sprintf("id%03d", i), "n", i, "mod", i%3,
			"person", D("last", fmt.Sprintf("NAME%d", i%5)))
		if err := c.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCollectionCRUD(t *testing.T) {
	c := newCollection("test")
	insertN(t, c, 10)
	if c.Len() != 10 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Get("id003") == nil {
		t.Fatal("Get missed an inserted doc")
	}
	if c.Get("nope") != nil {
		t.Fatal("Get invented a doc")
	}
	// Duplicate id rejected.
	if err := c.Insert(D("_id", "id003")); err == nil {
		t.Error("duplicate insert accepted")
	}
	// Missing id rejected.
	if err := c.Insert(D("x", 1)); err == nil {
		t.Error("missing _id accepted")
	}
	if !c.Delete("id003") {
		t.Fatal("Delete missed")
	}
	if c.Get("id003") != nil || c.Len() != 9 {
		t.Error("Delete left the doc behind")
	}
	if c.Delete("id003") {
		t.Error("double delete returned true")
	}
}

func TestDBSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := NewDB()
	c := db.Collection("clusters")
	c.Insert(D("_id", "c1", "n", 1.5, "records", []any{D("last", "A ")},
		"meta", D("snapshots", []any{"2008-01-01"})))
	c.Insert(D("_id", "c2", "flag", true, "null", nil))
	if err := db.SaveParallelOpts(dir, SaveOpts{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadParallelOpts(dir, LoadOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	lc := loaded.Collection("clusters")
	if lc.Len() != 2 {
		t.Fatalf("loaded %d docs", lc.Len())
	}
	d := lc.Get("c1")
	if v, _ := Get(d, "n"); v != 1.5 {
		t.Errorf("n = %v", v)
	}
	recs, _ := Get(d, "records")
	arr, ok := recs.([]any)
	if !ok || len(arr) != 1 {
		t.Fatalf("records = %#v", recs)
	}
	inner, ok := arr[0].(Document)
	if !ok || inner["last"] != "A " {
		t.Errorf("nested doc = %#v (whitespace must survive)", arr[0])
	}
	if names := loaded.CollectionNames(); len(names) != 1 || names[0] != "clusters" {
		t.Errorf("collection names = %v", names)
	}
}

func TestSaveIsAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	db := NewDB()
	c := db.Collection("x")
	c.Insert(D("_id", "a"))
	if err := db.SaveParallelOpts(dir, SaveOpts{}); err != nil {
		t.Fatal(err)
	}
	c.Insert(D("_id", "b"))
	if err := db.SaveParallelOpts(dir, SaveOpts{}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadParallelOpts(dir, LoadOpts{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Collection("x").Len() != 2 {
		t.Error("second save lost documents")
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	c := newCollection("t")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Insert(D("_id", fmt.Sprintf("w%d-%d", w, i), "k", i%7))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Get(fmt.Sprintf("w0-%d", i))
				c.Docs()
				c.Len()
			}
		}()
	}
	wg.Wait()
	if c.Len() != 800 {
		t.Errorf("Len = %d, want 800", c.Len())
	}
}

func TestFieldPathEscape(t *testing.T) {
	key := FieldPathEscape("2008-01-01.v2")
	d := D("m", D(key, 1))
	if v, ok := Get(d, "m."+key); !ok || v != 1 {
		t.Errorf("escaped key not addressable as one segment: %v %v", v, ok)
	}
	if _, ok := Get(D("m", D("2008-01-01.v2", 1)), "m.2008-01-01.v2"); ok {
		t.Error("an unescaped dotted key resolved as one segment")
	}
}

func BenchmarkInsert(b *testing.B) {
	b.ReportAllocs()
	c := newCollection("bench")
	for i := 0; i < b.N; i++ {
		c.Insert(D("_id", fmt.Sprint(i), "k", i%997, "person", D("last", "SMITH")))
	}
}
