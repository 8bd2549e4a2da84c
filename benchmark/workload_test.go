package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
	"repro/internal/voter"
)

// tiny is the shape the tests drive: every phase runs, nothing takes long.
var tiny = shape{
	name: "tiny", why: "test shape",
	voters: 50, startYear: 2008, years: 3,
	tune:       func(c *synth.Config) { c.ReRegisterRate = 0.3 },
	changeFeed: true,
	setupReps:  2, coldReps: 2,
	hotRequests: 300, wideRequests: 200,
	selectTop: 30,
}

// importAll imports the snapshots in order under the benchmark's removal mode.
func importAll(snaps []voter.Snapshot) *core.Dataset {
	ds := core.NewDataset(core.RemoveTrimmed)
	for _, s := range snaps {
		ds.ImportSnapshot(s)
	}
	return ds
}

func TestRequestMixesAreDeterministic(t *testing.T) {
	ds := importAll(synth.Generate(tiny.config(1)))
	again := importAll(synth.Generate(tiny.config(1)))
	if !reflect.DeepEqual(hotMix(ds, 1), hotMix(again, 1)) {
		t.Error("hot mix differs between two builds of the same seed")
	}
	if !reflect.DeepEqual(wideMix(ds, 3000), wideMix(again, 3000)) {
		t.Error("wide mix differs between two builds of the same seed")
	}
	if reflect.DeepEqual(hotMix(ds, 1)[0].Paths, hotMix(ds, 2)[0].Paths) {
		t.Error("the hot mix's NCID pool does not depend on the seed")
	}
	hot := hotMix(ds, 1)
	if n := len(hot[0].Paths); n != min(hotRecordPaths, ds.NumClusters()) {
		t.Errorf("hot mix looks up %d NCIDs, want %d", n, min(hotRecordPaths, ds.NumClusters()))
	}
	keys := 0
	for _, target := range hot {
		keys += len(target.Paths)
	}
	if keys >= 1024 {
		t.Errorf("hot mix has %d distinct paths: it must fit the 1024-entry response cache", keys)
	}
}

// The wide mix must overflow the response cache on every workload: more than
// 1024 distinct cacheable keys, and at least one per cacheable request so that
// none repeats inside the timed loop.
func TestWideMixOverflowsTheResponseCache(t *testing.T) {
	ds := importAll(synth.Generate(tiny.config(1)))
	for _, sh := range shapes {
		mix := wideMix(ds, sh.wideRequests)
		distinct := map[string]bool{}
		cacheableRequests, weights := 0, 0
		for _, target := range mix {
			weights += target.Weight
		}
		for _, target := range mix {
			if strings.Contains(target.Route, "{ncid}") {
				if len(target.Paths) != ds.NumClusters() {
					t.Errorf("%s: cluster route walks %d NCIDs of %d", sh.name, len(target.Paths), ds.NumClusters())
				}
				continue // GET /v1/clusters/{ncid} is not cacheable
			}
			for _, p := range target.Paths {
				distinct[p] = true
			}
			cacheableRequests += sh.wideRequests * target.Weight / weights
		}
		if len(distinct) <= 1024 {
			t.Errorf("%s: wide mix has %d distinct cacheable keys, want > 1024", sh.name, len(distinct))
		}
		// The warm-up pass ends on the last target: its first key is still
		// cached when the timed loop asks for it unless that target alone
		// overflows the cache.
		if last := mix[len(mix)-1]; len(last.Paths) <= 1024 {
			t.Errorf("%s: the last target warmed has %d keys, want > 1024", sh.name, len(last.Paths))
		}
		if len(distinct) < cacheableRequests {
			t.Errorf("%s: %d cacheable requests share %d keys: some would hit", sh.name, cacheableRequests, len(distinct))
		}
	}
}

func TestShapesByName(t *testing.T) {
	for _, sh := range shapes {
		got, err := shapeByName(sh.name)
		if err != nil || got.name != sh.name {
			t.Errorf("shapeByName(%q) = %v, %v", sh.name, got.name, err)
		}
		if len(sh.why) > 200 || strings.Contains(sh.why, "\n") {
			t.Errorf("%s: the reason must be one line of at most 200 characters, has %d", sh.name, len(sh.why))
		}
		if n := len(sh.config(1).Snapshots); n < 2 {
			t.Errorf("%s: %d snapshots, need a base and a refresh input", sh.name, n)
		}
	}
	if _, err := shapeByName("nope"); err == nil {
		t.Error("an unknown workload must be an error")
	}
}

// The change-only feed holds exactly the rows whose trimmed hash is new for
// their NCID, and applying it grows the dataset exactly as the full snapshot
// does.
func TestChangeFeed(t *testing.T) {
	snaps := synth.Generate(tiny.config(1))
	base, prev, last := snaps[:len(snaps)-1], snaps[len(snaps)-2], snaps[len(snaps)-1]
	feed := changeFeed(prev, last)
	if feed.Date != last.Date {
		t.Errorf("feed is dated %s, want %s", feed.Date, last.Date)
	}

	type key struct {
		ncid string
		hash voter.Hash
	}
	inPrev := map[key]bool{}
	for _, r := range prev.Records {
		inPrev[key{r.NCID(), voter.HashRecord(r, voter.HashTrimmed)}] = true
	}
	inFeed := map[key]int{}
	for _, r := range feed.Records {
		k := key{r.NCID(), voter.HashRecord(r, voter.HashTrimmed)}
		if inPrev[k] {
			t.Errorf("feed holds a row of %s whose hash the previous snapshot already had", r.NCID())
		}
		inFeed[k]++
	}
	want := 0
	for _, r := range last.Records {
		k := key{r.NCID(), voter.HashRecord(r, voter.HashTrimmed)}
		if !inPrev[k] {
			want++
			if inFeed[k] == 0 {
				t.Errorf("feed lacks the new row of %s", r.NCID())
			}
		}
	}
	if len(feed.Records) != want || want == 0 || want == len(last.Records) {
		t.Errorf("feed has %d rows, want the %d new ones of %d", len(feed.Records), want, len(last.Records))
	}

	viaFeed, viaFull := importAll(base), importAll(base)
	viaFeed.ImportSnapshot(feed)
	viaFull.ImportSnapshot(last)
	if viaFeed.NumRecords() != viaFull.NumRecords() || viaFeed.NumClusters() != viaFull.NumClusters() ||
		viaFeed.NumPairs() != viaFull.NumPairs() {
		t.Errorf("feed gives %d records, %d clusters, %d pairs; full snapshot %d, %d, %d",
			viaFeed.NumRecords(), viaFeed.NumClusters(), viaFeed.NumPairs(),
			viaFull.NumRecords(), viaFull.NumClusters(), viaFull.NumPairs())
	}
}
