package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/docstore"
	"repro/internal/voter"
)

// recordViewDoc is the reference projection AppendRecordViewJSON is held to:
// the cluster document without its reproducibility meta block, the id under
// "ncid".
func recordViewDoc(doc docstore.Document) docstore.Document {
	view := docstore.D("ncid", doc["_id"], "size", doc["size"], "records", doc["records"])
	if p, ok := doc["plausibility"]; ok {
		view["plausibility"] = p
	}
	if h, ok := doc["heterogeneity"]; ok {
		view["heterogeneity"] = h
	}
	return view
}

// checkClusterJSON holds both direct renderings of one cluster against
// json.Marshal of the document clusterDoc builds, errors included.
func checkClusterJSON(t *testing.T, c *Cluster) {
	t.Helper()
	doc := clusterDoc(c)
	for _, tc := range []struct {
		name   string
		want   any
		render func([]byte) ([]byte, error)
	}{
		{"doc", doc, c.AppendDocJSON},
		{"view", recordViewDoc(doc), c.AppendRecordViewJSON},
	} {
		want, wantErr := json.Marshal(tc.want)
		got, err := tc.render([]byte("prefix"))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s %q: error %v, json's %v", tc.name, c.NCID, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("%s %q: dst was not appended to", tc.name, c.NCID)
		}
		if got = got[len("prefix"):]; !bytes.Equal(got, want) {
			t.Fatalf("%s %q diverged from json.Marshal:\n got %s\nwant %s", tc.name, c.NCID, got, want)
		}
	}
}

// TestClusterJSON runs the oracle over every cluster of a seeded, scored
// corpus — fresh, and again after a segmented save/load round trip, where
// the loaded documents themselves (sizes and versions now float64) must
// also marshal to the bytes the reloaded clusters render.
func TestClusterJSON(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	for _, p := range writeSnapshotFiles(t, 31, 150, 4) {
		importReference(t, d, p)
		for _, kind := range []string{KindPlausibility, KindHeteroPerson, KindHeteroAll} {
			d.UpdateScores(pairwise(kind, nameSim), 1, nil)
		}
		d.Publish()
	}
	multi := 0
	d.Clusters(func(c *Cluster) bool {
		if len(c.Records) > 1 {
			multi++
		}
		checkClusterJSON(t, c)
		return true
	})
	if multi == 0 {
		t.Fatal("corpus has no scored cluster")
	}

	dir := t.TempDir()
	if err := d.ToDocDB().SaveParallelOpts(dir, docstore.SaveOpts{Stride: 16}); err != nil {
		t.Fatal(err)
	}
	stored, err := docstore.LoadParallelOpts(dir, docstore.LoadOpts{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromDocDBParallel(stored, 2)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumClusters() != d.NumClusters() {
		t.Fatalf("round trip kept %d of %d clusters", back.NumClusters(), d.NumClusters())
	}
	col := stored.Collection(ClustersCollection)
	back.Clusters(func(c *Cluster) bool {
		checkClusterJSON(t, c)
		want, err := json.Marshal(col.Get(c.NCID))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := c.AppendDocJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("%s: reloaded cluster renders other bytes than its stored document:\n got %s\nwant %s", c.NCID, got, want)
		}
		return true
	})
}

// hostileStrings are values the fast string path must hand to json.
var hostileStrings = []string{
	"", "PLAIN", `<>&"\`, "tab\there", "nul\x00", "\x7f", "é ü 世界", "\u2028\u2029",
	"bad\xff\xfeutf8", "2010.01.01", "2010．01．01", "2010-01-01", "a.b.c", " padded ",
}

var hostileScores = []float64{0, 1e-7, 1, 0.5, 0.1 + 0.2, 1e-6, 1e21, 1e300, -0.25, math.Copysign(0, -1)}

// randomCluster builds a cluster no import would: hostile values in every
// position a string can take, score maps with gaps, indices past 9 and
// versions past 9 (so decimal key order differs from numeric order), dates
// whose escaped forms reorder or collide.
func randomCluster(rng *rand.Rand, extra []string, score float64) *Cluster {
	pool := append(append([]string{}, hostileStrings...), extra...)
	pick := func() string { return pool[rng.Intn(len(pool))] }
	scores := append(append([]float64{}, hostileScores...), score)

	c := newCluster(pick())
	for n := rng.Intn(14); n > 0; n-- {
		r := voter.NewRecord()
		for k := rng.Intn(8); k > 0; k-- {
			r.Values[rng.Intn(voter.NumAttributes)] = pick()
		}
		e := RecordEntry{Rec: r, FirstVersion: rng.Intn(13)}
		rng.Read(e.Hash[:])
		for k := rng.Intn(3); k > 0; k-- {
			e.Snapshots = append(e.Snapshots, pick())
		}
		c.Records = append(c.Records, e)
	}
	for k := rng.Intn(5); k > 0; k-- {
		c.Inserted[pick()] = rng.Intn(100)
	}
	kinds := []string{KindPlausibility, KindHeteroPerson, KindHeteroAll, pick()}
	for _, kind := range kinds[:rng.Intn(len(kinds)+1)] {
		vm := VersionSimMap{}
		for i := 1; i < len(c.Records); i++ {
			if rng.Intn(4) == 0 {
				continue // a record whose scores are absent
			}
			version := rng.Intn(13)
			if vm[version] == nil {
				vm[version] = map[int]map[int]float64{}
			}
			row := map[int]float64{}
			for j := 0; j < i; j++ {
				if rng.Intn(5) > 0 {
					row[j] = scores[rng.Intn(len(scores))]
				}
			}
			vm[version][i] = row
		}
		if rng.Intn(3) == 0 {
			vm[rng.Intn(13)] = nil
		}
		c.SimMaps[kind] = vm
	}
	return c
}

// FuzzClusterJSON: whatever the cluster holds, the direct renderings are
// json.Marshal's bytes for the cluster document and its record view — or
// fail where json fails (NaN and infinite scores).
func FuzzClusterJSON(f *testing.F) {
	f.Add(int64(1), "", "", 0.5)
	f.Add(int64(2), `</script>`, "2008.11.04", 1e-7)
	f.Add(int64(3), "\xc3\x28", "v10", math.NaN())
	f.Add(int64(4), "．.．", "\\u0000", math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, s1, s2 string, score float64) {
		rng := rand.New(rand.NewSource(seed))
		for n := 0; n < 4; n++ {
			checkClusterJSON(t, randomCluster(rng, []string{s1, s2}, score))
		}
	})
}

// TestClusterJSONKeyOrders pins the three orders that differ from the
// obvious one, so a failure names the cause instead of a fuzz seed.
func TestClusterJSONKeyOrders(t *testing.T) {
	c := newCluster("K")
	for i := 0; i < 12; i++ {
		r := voter.NewRecord()
		r.SetName("first_name", fmt.Sprint("N", i))
		c.Records = append(c.Records, RecordEntry{Rec: r, FirstVersion: 1 + i})
	}
	// "a.b" escapes past "a/b"; "x.y" and "x．y" escape to one key.
	c.Inserted = map[string]int{"a.b": 1, "a/b": 2, "x.y": 3, "x．y": 4}
	vm := VersionSimMap{}
	for i := 1; i < 12; i++ {
		row := map[int]float64{}
		for j := 0; j < i; j++ {
			row[j] = float64(j) / 16
		}
		vm[1+i] = map[int]map[int]float64{i: row}
	}
	c.SimMaps[KindPlausibility] = vm
	checkClusterJSON(t, c)

	got, err := c.AppendDocJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"inserted":{"a/b":2,"a．b":1,"x．y":4}`,
		`"v10":{"9":{`, `"v12":{"11":{"0":0,"1":0.0625,"10":0.625,"2":0.125,`,
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("document misses %s:\n%s", want, got)
		}
	}
}

// TestRecordViewRenderAllocatesNothing: a generation renders every cluster's
// view into one reused buffer and keeps an exact-size copy; the render
// itself must not allocate (plain values; escapes are json's).
func TestRecordViewRenderAllocatesNothing(t *testing.T) {
	d := NewDataset(RemoveTrimmed)
	d.ImportSnapshot(snap("2008-01-01",
		rec("A1", "JOHN", "SMITH", ""), rec("A1", "JON", "SMITH", ""), rec("A1", "JOHNNY", "SMYTHE", "")))
	d.UpdateScores(pairwise(KindPlausibility, nameSim), 1, nil)
	d.UpdateScores(pairwise(KindHeteroPerson, nameSim), 1, nil)
	c := d.Cluster("A1")
	buf := make([]byte, 0, 16<<10)
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		if buf, err = c.AppendRecordViewJSON(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("record-view render allocates %.0f times per cluster", allocs)
	}
	if !bytes.Contains(buf, []byte(`"plausibility":`)) || !bytes.Contains(buf, []byte(`"heterogeneity":`)) {
		t.Fatalf("view misses a score: %s", buf)
	}
}
