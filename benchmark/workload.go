package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/loadgen"
	"repro/internal/synth"
)

// shape is one register shape the benchmark runs: a synth configuration plus
// the fixed work counts that keep every timed window long enough to measure.
type shape struct {
	name string
	// why is the one-line reason recorded in BENCHMARK.json.
	why string

	voters    int
	startYear int
	years     int
	// tune applies the workload's overrides to synth.DefaultConfig.
	tune func(*synth.Config)
	// changeFeed makes the refresh input a change-only feed (the rows of the
	// last snapshot whose trimmed hash is new for their NCID) instead of the
	// full last snapshot.
	changeFeed bool

	// setupReps and coldReps are how many times the stateless setup and
	// cold_start phases run back to back inside their window, like a b.N:
	// fixed per workload so the window lasts about 0.2 s, reported
	// per execution.
	setupReps, coldReps int
	// hotRequests and wideRequests are the closed-loop request counts.
	hotRequests, wideRequests int
	// selectTop is how many of the largest clusters the dedup phase keeps.
	selectTop int
}

// shapes is the workload table. Sizes are tuned on the 2-vCPU sandbox, on one
// P, so that a timed window lasts 0.2 to 0.5 s on its fastest lap (refresh on
// census and build on churn more, by construction) and nine laps fit the
// driver's time cap (README.md); the reasons are the ones BENCHMARK.json
// records.
var shapes = []shape{
	{
		name: "register",
		why: "39 snapshots, ~20 rows per kept record: TSV decode, hashing and duplicate removal dominate build; " +
			"refresh is a change-only feed, so segment and cache reuse are used",
		voters: 1300, startYear: 1995, years: 26,
		tune: func(c *synth.Config) {
			c.ReRegisterRate = 0.004
			c.MoveRate = 0.002
			c.NewVoterRate = 0.004
			c.DriftAt = nil
		},
		changeFeed: true,
		setupReps:  1, coldReps: 1,
		hotRequests: 24000, wideRequests: 3900,
		selectTop: 100,
	},
	{
		name: "churn",
		why: "12 snapshots of heavy re-registration with heavy errors: clusters of 5+ records, so pair scoring " +
			"dominates build, every cluster is touched on refresh and dedup is kernel-bound",
		voters: 340, startYear: 2008, years: 8,
		tune: func(c *synth.Config) {
			c.ReRegisterRate = 0.35
			c.MoveRate = 0.10
			c.MarryRate = 0.02
			c.Errors = corrupt.Heavy()
			// Nickname errors stay off: corrupt.Nickname draws from a reverse
			// table whose order follows map iteration at process start, so two
			// processes write different registers from one seed (this
			// benchmark's golden check found it; the fix belongs to
			// internal/corrupt, which this change may not touch).
			c.Errors.Nickname = 0
		},
		setupReps: 7, coldReps: 1,
		hotRequests: 16000, wideRequests: 3600,
		selectTop: 44,
	},
	{
		name: "census",
		why: "3 snapshots of many small clusters with format drift in the last: the store round trip dominates, " +
			"refresh rewrites every segment so reuse is bypassed, and the key space exceeds the response cache",
		voters: 2100, startYear: 2008, years: 2,
		tune: func(c *synth.Config) {
			c.DriftAt = []int{2}
		},
		setupReps: 6, coldReps: 1,
		hotRequests: 21000, wideRequests: 3600,
		selectTop: 100,
	},
}

func shapeByName(name string) (shape, error) {
	names := make([]string, len(shapes))
	for i, s := range shapes {
		if s.name == name {
			return s, nil
		}
		names[i] = s.name
	}
	return shape{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, ", "))
}

// config returns the synth configuration of the shape for one seed.
func (s shape) config(seed int64) synth.Config {
	cfg := synth.DefaultConfig(seed, s.voters)
	cfg.Snapshots = synth.Calendar(s.startYear, s.years)
	s.tune(&cfg)
	return cfg
}

// hotRecordPaths is the NCID pool of the hot mix's point lookups; with the
// four aggregate queries the mix stays far inside the 1024-entry response
// cache.
const hotRecordPaths = 256

// The wide mix's route weights: uncacheable cluster lookups, cacheable list
// queries, cacheable summaries.
const (
	wideClusterWeight = 6
	wideListWeight    = 3
	wideSummaryWeight = 1
)

// hotMix is the BENCH_serving census mix: point lookups over a fixed pool of
// NCIDs dominate, the aggregates repeat, so after the first pass every
// cacheable response is a cache hit.
func hotMix(ds *core.Dataset, seed int64) []loadgen.Target {
	ids := append([]string(nil), ds.NCIDs()...)
	sort.Strings(ids)
	rng := rand.New(rand.NewSource(corrupt.SubSeed(seed, 71)))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if len(ids) > hotRecordPaths {
		ids = ids[:hotRecordPaths]
	}
	records := make([]string, len(ids))
	for i, id := range ids {
		records[i] = "/v1/records/" + id
	}
	return []loadgen.Target{
		{Route: "GET /v1/records/{ncid}", Paths: records, Weight: 5},
		{Route: "GET /v1/clusters/summary", Paths: []string{
			"/v1/clusters/summary", "/v1/clusters/summary?minSize=2",
		}, Weight: 2},
		{Route: "GET /v1/clusters", Paths: []string{
			"/v1/clusters?score=heterogeneity&min=0.4&limit=20",
		}, Weight: 1},
		{Route: "GET /v1/stats", Paths: []string{"/v1/stats"}, Weight: 1},
		{Route: "GET /v1/histogram", Paths: []string{"/v1/histogram"}, Weight: 1},
	}
}

// wideMix walks every NCID on the uncacheable cluster route and gives every
// list and summary request of the run a query of its own: more distinct
// cacheable keys than the response cache holds, each requested once in
// loadgen's warm-up pass and once in the timed loop. The lists alone, warmed
// last, outnumber the cache (a test pins > 1024), so the LRU has evicted every
// key in between and every cacheable request misses.
func wideMix(ds *core.Dataset, requests int) []loadgen.Target {
	ids := append([]string(nil), ds.NCIDs()...)
	sort.Strings(ids)
	clusters := make([]string, len(ids))
	for i, id := range ids {
		clusters[i] = "/v1/clusters/" + id
	}
	const weights = wideClusterWeight + wideListWeight + wideSummaryWeight
	lists := make([]string, requests*wideListWeight/weights+1)
	for i := range lists {
		lists[i] = fmt.Sprintf("/v1/clusters?score=heterogeneity&min=%.5f&limit=50", 0.5*float64(i)/float64(len(lists)))
	}
	summaries := make([]string, requests*wideSummaryWeight/weights+1)
	for i := range summaries {
		summaries[i] = fmt.Sprintf("/v1/clusters/summary?minSize=1&maxSize=%d", 2+i)
	}
	return []loadgen.Target{
		{Route: "GET /v1/clusters/{ncid}", Paths: clusters, Weight: wideClusterWeight},
		// Summaries before lists: the warm-up pass then ends on the lists,
		// which leaves the fewest still-cached keys for the timed loop to hit.
		{Route: "GET /v1/clusters/summary", Paths: summaries, Weight: wideSummaryWeight},
		{Route: "GET /v1/clusters", Paths: lists, Weight: wideListWeight},
	}
}
