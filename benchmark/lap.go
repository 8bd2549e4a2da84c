package main

import (
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/custom"
	"repro/internal/dedup"
	"repro/internal/docstore"
	"repro/internal/hetero"
	"repro/internal/httpapi"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/plaus"
	"repro/internal/provenance"
	"repro/internal/serving"
	"repro/internal/synth"
	"repro/internal/voter"
)

// The seven timed phases of a lap, in pipeline order. Each is the window of
// one end-to-end metric.
const (
	phaseSetup = iota
	phaseBuild
	phaseColdStart
	phaseRefresh
	phaseHot
	phaseWide
	phaseDedup
	numPhases
)

var phaseNames = [numPhases]string{"setup", "build", "cold_start", "refresh", "hot", "wide", "dedup"}

// Pipeline settings, as the CLIs' flags. The stride is 16 documents per
// segment, not the 256 a full register would use, so that these small corpora
// split into a hundred or more segments: dirty-segment reuse and the segment
// cache can only show when a refresh leaves most segments untouched.
const (
	storeStride  = 16  // ncimport -stride 16
	dedupPasses  = 5   // ncdedup -passes 5
	dedupWindow  = 20  // ncdedup -window 20
	dedupSteps   = 100 // ncdedup -steps 100
	heapInterval = 10 * time.Millisecond
)

// runEnv is what every lap of a run shares.
type runEnv struct {
	sh      shape
	seed    int64
	workDir string
	nproc   int
	tr      *tracer // nil on an untraced run
	logger  *slog.Logger
}

// lapResult is what one lap measured.
type lapResult struct {
	// phase is the time of one execution of each phase; window is how long
	// the phase's timed window lasted (phase × repetitions).
	phase, window [numPhases]float64
	wall          float64 // the whole lap, untimed checks included
	peakHeap      uint64  // max heap objects bytes sampled over build, cold_start, refresh
	alloc         uint64  // bytes allocated inside the seven windows
	inputBytes    int64   // base TSV bytes
	facts         facts
	ops, failed   int64
	failures      []string
	// raw holds the per-layer observations of a traced lap (and the host
	// reference of every lap), keyed by observation name.
	raw map[string]float64
	// hotLat and wideLat are the per-route request latencies in ms of a
	// traced lap.
	hotLat, wideLat map[string][]float64
	// sink takes the results of calls timed only for their cost, so that the
	// compiler cannot drop them.
	sink float64
}

// lap is the state one lap threads through its phases.
type lap struct {
	*runEnv
	n   int // 0 is the warm-up lap
	dir string
	res *lapResult

	snapDir     string
	base        []string // base snapshot files
	refreshPath string   // refresh input: last snapshot or change-only feed
	allRows     int      // rows over every snapshot written by setup
	storeDir    string

	ds     *core.Dataset // the importer's dataset (build, then refresh)
	served *core.Dataset // the dataset the API currently serves
	api    *httpapi.Server
	cache  *docstore.SegmentCache
}

// runLap runs the whole pipeline from scratch in a fresh directory.
func (e *runEnv) runLap(n int) (*lapResult, error) {
	dir := filepath.Join(e.workDir, fmt.Sprintf("lap-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if e.tr != nil {
		e.tr.lap = n
	}
	l := &lap{runEnv: e, n: n, dir: dir, storeDir: filepath.Join(dir, "store"),
		res: &lapResult{raw: map[string]float64{}}}
	start := time.Now()
	l.hostReference()
	for _, step := range []func() error{l.setup, l.build, l.coldStart, l.refresh, l.hot, l.wide, l.dedup} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	l.res.wall = time.Since(start).Seconds()
	return l.res, nil
}

// timed runs f as the window of phase p: a collection first (each phase is a
// process of its own in production), then the clock, the allocation counter
// and, for the import-side phases, the heap sampler.
func (l *lap) timed(p, reps int, f func() error) error {
	runtime.GC()
	var sampler *heapSampler
	if p == phaseBuild || p == phaseColdStart || p == phaseRefresh || (p == phaseDedup && l.tr != nil) {
		sampler = startHeapSampler()
	}
	a0 := allocatedBytes()
	id := l.tr.begin("bench." + phaseNames[p])
	start := time.Now()
	err := f()
	d := time.Since(start).Seconds()
	l.tr.end(id)
	l.res.alloc += allocatedBytes() - a0
	if sampler != nil {
		peak := sampler.stop()
		if p == phaseDedup {
			l.res.raw["dedup.peak_heap_bytes"] = float64(peak)
		} else {
			l.res.peakHeap = max(l.res.peakHeap, peak)
		}
	}
	l.res.window[p] = d
	l.res.phase[p] = d / float64(reps)
	if err != nil {
		return fmt.Errorf("%s: %w", phaseNames[p], err)
	}
	return nil
}

// setup writes the register's TSV snapshots, as ncgen does.
func (l *lap) setup() error {
	cfg := l.sh.config(l.seed)
	var dirs []string
	var paths []string
	err := l.timed(phaseSetup, l.sh.setupReps, func() error {
		for r := 0; r < l.sh.setupReps; r++ {
			dir := filepath.Join(l.dir, fmt.Sprintf("snapshots-%d", r))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			var err error
			l.tr.do("synth.write", func() { paths, err = synth.WriteAllParallel(cfg, dir, 0) })
			if err != nil {
				return err
			}
			if err := provenance.WriteGeneratorInfo(dir, provenance.GeneratorInfo{
				Tool: "ncgen", Seed: l.seed, Voters: l.sh.voters, Years: l.sh.years,
				Errors: "bench", UnsoundRate: cfg.UnsoundRate,
			}); err != nil {
				return err
			}
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Keep the last repetition's files; every repetition wrote the same bytes.
	for _, d := range dirs[:len(dirs)-1] {
		os.RemoveAll(d)
	}
	l.snapDir = dirs[len(dirs)-1]
	if len(paths) < 2 {
		return fmt.Errorf("setup: %d snapshots, need a base and a refresh input", len(paths))
	}
	l.base, l.refreshPath = paths[:len(paths)-1], paths[len(paths)-1]
	for _, p := range l.base {
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		l.res.inputBytes += st.Size()
	}
	return l.prepareRefreshInput()
}

// prepareRefreshInput counts the last snapshot's rows and, for a change-feed
// workload, replaces the refresh input by the change-only feed. It is the
// feed producer's work, outside the system, so it is not timed.
func (l *lap) prepareRefreshInput() error {
	last, err := voter.ReadSnapshotFile(l.refreshPath)
	if err != nil {
		return err
	}
	l.allRows = len(last.Records) // base rows are added after the import
	if !l.sh.changeFeed {
		return nil
	}
	prev, err := voter.ReadSnapshotFile(l.base[len(l.base)-1])
	if err != nil {
		return err
	}
	feedDir := filepath.Join(l.dir, "feed")
	if err := os.MkdirAll(feedDir, 0o755); err != nil {
		return err
	}
	l.refreshPath, err = voter.WriteSnapshotFile(feedDir, changeFeed(prev, last))
	return err
}

// changeFeed returns the rows of next whose trimmed record hash is absent from
// prev for their NCID: what a register would publish as "changes since the
// last snapshot".
func changeFeed(prev, next voter.Snapshot) voter.Snapshot {
	type key struct {
		ncid string
		hash voter.Hash
	}
	seen := make(map[key]bool, len(prev.Records))
	for _, r := range prev.Records {
		seen[key{r.NCID(), voter.HashRecord(r, voter.HashTrimmed)}] = true
	}
	feed := voter.Snapshot{Date: next.Date}
	for _, r := range next.Records {
		if !seen[key{r.NCID(), voter.HashRecord(r, voter.HashTrimmed)}] {
			feed.Records = append(feed.Records, r)
		}
	}
	return feed
}

// stampMeta is ncimport's provenance metadata of one import run.
func stampMeta(ds *core.Dataset, in string) (provenance.Meta, error) {
	gen, err := provenance.ReadGeneratorInfo(in)
	if err != nil {
		return provenance.Meta{}, err
	}
	return provenance.Meta{Source: "ncimport", Mode: ds.Mode.String(), Lineage: ds.SnapshotLineage(), Generator: gen}, nil
}

// build imports the base files, scores, publishes and saves the stamped
// store, as `ncimport -scores -stride 256` does.
func (l *lap) build() error {
	m := obs.NewMetrics()
	ds := core.NewDataset(core.RemoveTrimmed)
	var rows, newRecords int
	var importAlloc uint64
	var db *docstore.DB
	var saveSpan int
	err := l.timed(phaseBuild, 1, func() error {
		a0 := allocatedBytes()
		for _, path := range l.base {
			var st core.ImportStats
			var err error
			l.tr.do("core.import", func() {
				st, err = ds.ImportSnapshotFileParallelOpts(path, core.IngestOptions{Observer: m})
			})
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			rows += st.Rows
			newRecords += st.NewRecords
		}
		importAlloc = allocatedBytes() - a0
		l.tr.do("plaus.update", func() { plaus.UpdateParallel(ds, 0) })
		l.tr.do("hetero.update", func() { hetero.UpdateParallel(ds, 0) })
		ds.Publish()
		l.tr.do("core.todocdb", func() { db = ds.ToDocDB() })
		meta, err := stampMeta(ds, l.snapDir)
		if err != nil {
			return err
		}
		saveSpan = l.tr.begin("provenance.save")
		_, err = provenance.Save(db, l.storeDir, docstore.SaveOpts{Stride: storeStride, Observer: m},
			provenance.StampOpts{Meta: meta, Observer: m})
		l.tr.end(saveSpan)
		return err
	})
	if err != nil {
		return err
	}
	l.ds = ds
	l.allRows += rows
	c := m.Snapshot().Counters
	l.res.ops += int64(rows) + c[docstore.CounterDocsWritten]
	storeBytes, err := dirBytes(l.storeDir)
	if err != nil {
		return err
	}
	f := &l.res.facts
	f.BaseRows, f.BaseRecords, f.BaseClusters, f.BasePairs = rows, ds.NumRecords(), ds.NumClusters(), ds.NumPairs()
	f.StoreBytes = storeBytes
	l.check("verify after build", l.verifyStore())

	raw := l.res.raw
	raw["synth.rows"] = float64(l.allRows)
	raw["core.import_alloc_bytes"] = float64(importAlloc)
	raw["core.dup_row_share"] = 1 - float64(newRecords)/float64(rows)
	raw["core.ingest_stall_ms"] = float64(c["ingest_stall_read_ms"] + c["ingest_stall_decode_ms"] +
		c["ingest_stall_route_ms"] + c["ingest_stall_build_ms"])
	if l.tr != nil {
		return l.isolateBuild(db, saveSpan)
	}
	return nil
}

// verifyStore re-derives every digest of the store's provenance record and
// times it: the check doubles as the provenance.verify_s observation.
func (l *lap) verifyStore() error {
	start := time.Now()
	rep, err := provenance.VerifyDir(l.storeDir, provenance.VerifyOpts{})
	l.res.raw["provenance.verify_s"] = time.Since(start).Seconds()
	if err != nil {
		return err
	}
	if len(rep.Bad) > 0 {
		return fmt.Errorf("corrupted files: %v", rep.Bad)
	}
	return nil
}

// load is ncserve's load function: read the store through the segment cache,
// rebuild the dataset, pick up the provenance record and publish the next
// serving generation.
func (l *lap) load(m *obs.Metrics) error {
	var stored *docstore.DB
	var ds *core.Dataset
	var err error
	l.tr.do("docstore.load", func() {
		stored, err = docstore.LoadParallelOpts(l.storeDir, docstore.LoadOpts{Cache: l.cache, Observer: m})
	})
	if err != nil {
		return err
	}
	l.tr.do("core.fromdocdb", func() { ds, err = core.FromDocDBParallel(stored, 0) })
	if err != nil {
		return err
	}
	var record []byte
	l.tr.do("provenance.load", func() {
		var rec *provenance.Record
		if rec, record, err = provenance.LoadRecord(nil, l.storeDir); err == nil {
			err = rec.SelfCheck()
		}
	})
	if err != nil {
		return err
	}
	l.tr.do("serving.publish", func() { l.api.PublishWithProvenance(ds, record) })
	l.served = ds
	l.res.ops += m.Counter(docstore.CounterDocsRead)
	return nil
}

// healthz asks the API for readiness and returns the generation it serves.
func (l *lap) healthz() (uint64, error) {
	rec := httptest.NewRecorder()
	l.tr.do("httpapi.healthz", func() {
		l.api.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	})
	l.res.ops++
	if rec.Code != http.StatusOK {
		l.res.failed++
		return 0, fmt.Errorf("GET /v1/healthz: status %d", rec.Code)
	}
	return strconv.ParseUint(rec.Header().Get("X-Dataset-Generation"), 10, 64)
}

// coldStart is what ncserve does before it is ready: load, rebuild, publish,
// first healthz = 200. It is stateless, so a short one repeats on a fresh
// server and segment cache inside its window.
func (l *lap) coldStart() error {
	err := l.timed(phaseColdStart, l.sh.coldReps, func() error {
		for r := 0; r < l.sh.coldReps; r++ {
			l.api = httpapi.NewDeferred(httpapi.WithLogger(l.logger))
			l.cache = docstore.NewSegmentCache()
			if err := l.load(obs.NewMetrics()); err != nil {
				return err
			}
			if gen, err := l.healthz(); err != nil || gen != 1 {
				return fmt.Errorf("first healthz: generation %d, %v", gen, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.check("cold_start round trip", fingerprintDiff(l.ds, l.served))
	return nil
}

// refresh applies the next snapshot incrementally, saves only dirty segments
// and reloads the server through its segment cache: `ncimport -delta -scores
// -stride 256` followed by SIGHUP.
func (l *lap) refresh() error {
	var dirtyCopy string
	if l.tr != nil {
		dirtyCopy = filepath.Join(l.dir, "store-before-refresh")
		if err := copyDir(l.storeDir, dirtyCopy); err != nil {
			return err
		}
	}
	m, mLoad := obs.NewMetrics(), obs.NewMetrics()
	merged := &core.Delta{}
	var db *docstore.DB
	var saveSpan int
	err := l.timed(phaseRefresh, 1, func() error {
		var ix *core.FingerprintIndex
		l.tr.do("core.fingerprint", func() { ix = core.BuildFingerprintIndex(l.ds) })
		var dl *core.Delta
		var err error
		l.tr.do("core.delta_apply", func() {
			dl, err = l.ds.ApplySnapshotDelta(l.refreshPath, core.DeltaOptions{Observer: m, Index: ix})
		})
		if err != nil {
			return err
		}
		merged.Merge(dl)
		l.tr.do("plaus.delta", func() { plaus.UpdateDelta(l.ds, merged, 0) })
		l.tr.do("hetero.delta", func() { hetero.UpdateDelta(l.ds, merged, 0) })
		m.AddN("delta_clusters_rescored", int64(len(merged.Dirty())))
		l.ds.Publish()
		l.tr.do("core.todocdb", func() { db = l.ds.ToDocDB() })
		meta, err := stampMeta(l.ds, filepath.Dir(l.refreshPath))
		if err != nil {
			return err
		}
		saveSpan = l.tr.begin("provenance.save")
		_, err = provenance.Save(db, l.storeDir,
			docstore.SaveOpts{Stride: storeStride, Dirty: merged.DirtyIDs(), Observer: m},
			provenance.StampOpts{Meta: meta, Observer: m})
		l.tr.end(saveSpan)
		if err != nil {
			return err
		}
		if err := l.load(mLoad); err != nil {
			return err
		}
		if gen, err := l.healthz(); err != nil || gen != 2 {
			return fmt.Errorf("healthz after reload: generation %d, %v", gen, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	c := m.Snapshot().Counters
	l.res.ops += int64(merged.Stats.Rows) + c[docstore.CounterDocsWritten]
	storeBytes, err := dirBytes(l.storeDir)
	if err != nil {
		return err
	}
	f := &l.res.facts
	f.RefreshRows, f.Records, f.Clusters, f.Pairs = merged.Stats.Rows, l.ds.NumRecords(), l.ds.NumClusters(), l.ds.NumPairs()
	f.RefreshedStoreBytes = storeBytes
	l.check("refresh round trip", fingerprintDiff(l.ds, l.served))
	l.check("verify after refresh", l.verifyStore())
	if l.n == 0 {
		l.check("refresh equals from-scratch import", l.matchesScratchImport())
	}

	raw := l.res.raw
	raw["core.delta_touched_share"] = float64(merged.Stats.TouchedClusters) / float64(l.ds.NumClusters())
	raw["core.delta_dirty_share"] = float64(merged.Stats.DirtyClusters) / float64(l.ds.NumClusters())
	raw["docstore.segments_rewritten_share"] = share(c[docstore.CounterSegmentsWritten], c[docstore.CounterSegmentsReused])
	raw["docstore.bytes_written_per_refresh"] = float64(c[docstore.CounterBytesWritten])
	raw["provenance.leaves_reused_share"] = share(c[provenance.CounterLeavesReused], c[provenance.CounterLeavesHashed])
	raw["docstore.segments_cached_share"] = share(mLoad.Counter(docstore.CounterSegmentsCached), mLoad.Counter(docstore.CounterSegmentsRead))
	if l.tr != nil {
		return l.isolateDirtySave(db, dirtyCopy, merged, saveSpan)
	}
	return nil
}

// share returns part / (part + rest), or 0 for an empty total.
func share(part, rest int64) float64 {
	if part+rest == 0 {
		return 0
	}
	return float64(part) / float64(part+rest)
}

// matchesScratchImport checks the incrementally refreshed dataset against a
// from-scratch import of the base files plus the refresh input.
func (l *lap) matchesScratchImport() error {
	scratch := core.NewDataset(core.RemoveTrimmed)
	for _, path := range l.base {
		if _, err := scratch.ImportSnapshotFileParallelOpts(path, core.IngestOptions{}); err != nil {
			return err
		}
	}
	scratch.Publish()
	if _, err := scratch.ImportSnapshotFileParallelOpts(l.refreshPath, core.IngestOptions{}); err != nil {
		return err
	}
	scratch.Publish()
	return fingerprintDiff(l.ds, scratch)
}

// fingerprintDiff reports the clusters whose reproducibility state differs
// between two datasets.
func fingerprintDiff(a, b *core.Dataset) error {
	if diff := core.BuildFingerprintIndex(a).Diff(core.BuildFingerprintIndex(b)); len(diff) > 0 {
		return fmt.Errorf("%d clusters differ (first: %s)", len(diff), diff[0])
	}
	return nil
}

// latencyRecorder wraps the API on a traced run and keeps every request's
// route and latency, so that percentiles can be pooled over laps. Slots are
// claimed with one atomic add; the requests loadgen issues as warm-up come
// first and are dropped by the caller.
type latencyRecorder struct {
	next    http.Handler
	routeOf map[string]int // request URI -> index of its target in the mix
	n       atomic.Int64
	samples []latencySample
}

type latencySample struct {
	route int
	ms    float64
}

func (lr *latencyRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	lr.next.ServeHTTP(w, r)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	if i := lr.n.Add(1) - 1; int(i) < len(lr.samples) {
		lr.samples[i] = latencySample{lr.routeOf[r.URL.RequestURI()], ms}
	}
}

// drive runs one closed-loop mix against the API with nproc clients. The
// phase time is loadgen's own clock, which excludes its warm-up pass. It
// returns the per-route latencies of a traced lap and how far the API's
// counters moved, and records the response cache's hit rate over the phase.
func (l *lap) drive(p int, targets []loadgen.Target, requests int) (map[string][]float64, map[string]int64) {
	var h http.Handler = l.api
	var lr *latencyRecorder
	warmup := 0
	if l.tr != nil {
		lr = &latencyRecorder{next: l.api, routeOf: map[string]int{}}
		for ti, t := range targets {
			warmup += len(t.Paths)
			for _, path := range t.Paths {
				lr.routeOf[path] = ti
			}
		}
		lr.samples = make([]latencySample, warmup+requests)
		h = lr
	}
	before := l.api.Metrics().Snapshot().Counters
	var res loadgen.Result
	// The window itself cannot fail: loadgen counts failed requests in res.
	_ = l.timed(p, 1, func() error {
		l.tr.do("httpapi."+phaseNames[p], func() {
			res = loadgen.Run(h, targets, loadgen.Config{Workers: l.nproc, Requests: requests})
		})
		return nil
	})
	moved := l.api.Metrics().Snapshot().Counters
	for name := range moved {
		moved[name] -= before[name]
	}
	l.res.window[p], l.res.phase[p] = res.Seconds, res.Seconds
	l.res.ops += int64(res.Requests)
	l.res.failed += int64(res.Errors)
	l.res.raw["httpapi.errors"] += float64(res.Errors)
	l.res.raw["serving.cache_hit_rate_"+phaseNames[p]] = share(moved[serving.CounterCacheHits], moved[serving.CounterCacheMisses])
	if res.Errors > 0 {
		l.res.failures = append(l.res.failures, fmt.Sprintf("%s: %d non-2xx replies", phaseNames[p], res.Errors))
	}
	var lat map[string][]float64
	if lr != nil {
		lat = map[string][]float64{}
		for _, s := range lr.samples[warmup:] {
			route := targets[s.route].Route
			lat[route] = append(lat[route], s.ms)
		}
	}
	return lat, moved
}

// hot drives the census mix, which fits the response cache.
func (l *lap) hot() error {
	targets := hotMix(l.served, l.seed)
	l.res.hotLat, _ = l.drive(phaseHot, targets, l.sh.hotRequests)
	l.res.facts.HotDigest = responseDigest(l.api, targets, 1)
	return nil
}

// wide drives the mix whose cacheable keys outnumber the response cache.
func (l *lap) wide() error {
	targets := wideMix(l.served, l.sh.wideRequests)
	var moved map[string]int64
	l.res.wideLat, moved = l.drive(phaseWide, targets, l.sh.wideRequests)
	l.res.raw["serving.cache_evictions"] = float64(moved[serving.CounterCacheEvictions])
	l.res.facts.WideDigest = responseDigest(l.api, targets, wideDigestStride)
	return nil
}

// dedup derives a labeled subset and sweeps every measure over streamed
// candidates, as `ncdedup -stream` does on an nccustom subset.
func (l *lap) dedup() error {
	m := obs.NewMetrics()
	f := &l.res.facts
	f.Candidates, f.BestF1Bits = map[string]int{}, map[string]string{}
	stages := map[string]time.Duration{}
	var cds *dedup.Dataset
	var first blocking.Stats
	var recall float64
	err := l.timed(phaseDedup, 1, func() error {
		l.tr.do("custom.build", func() {
			cds = custom.Build(l.ds, custom.Config{Name: l.sh.name, HLow: 0, HHigh: 1, SelectTop: l.sh.selectTop, Seed: l.seed})
		})
		cfg := blocking.Config{Window: dedupWindow, Observer: m}
		l.tr.do("blocking.passes", func() { cfg.Passes = blocking.EntropyPasses(cds, dedupPasses) })
		for i, measure := range dedup.Measures {
			scfg := cfg
			if i > 0 {
				scfg.Observer = nil // the re-runs repeat the first stream's counters
			}
			id := l.tr.begin("dedup.sweep")
			start := time.Now()
			s := blocking.GenerateStream(cds, scfg, blocking.StreamOpts{})
			stageStart := start
			curve := dedup.EvaluateCandidatesStream(cds, measure, s.C, dedupSteps, dedup.ScoreOpts{
				Observer: m, Recycle: s.Recycle,
				OnStage: func(stage string, d time.Duration) {
					stages[stage] += d
					l.tr.report(id, "dedup."+stage, stageStart, d)
					stageStart = stageStart.Add(d)
				},
			})
			stages["blocking"] += s.Elapsed()
			l.tr.report(id, "blocking.stream", start, s.Elapsed())
			l.tr.end(id)
			stats := s.Stats()
			if i == 0 {
				first, recall = stats, curve.Points[0].Recall
			}
			best, _ := curve.BestF1()
			f.Candidates[string(measure)] = stats.Unique
			f.BestF1Bits[string(measure)] = f1Bits(best)
			f.DedupPairs += stats.Unique
		}
		return nil
	})
	if err != nil {
		return err
	}
	f.DedupRecords = cds.NumRecords()
	l.res.ops += int64(f.DedupPairs)

	c := m.Snapshot().Counters
	raw := l.res.raw
	raw["blocking.stream_s"] = stages["blocking"].Seconds()
	raw["dedup.preprocess_s"] = stages["preprocessing"].Seconds()
	raw["dedup.scoring_s"] = stages["scoring"].Seconds()
	raw["dedup.merge_s"] = stages["merge"].Seconds()
	raw["blocking.pairs_per_record"] = float64(first.Unique) / float64(max(first.Records, 1))
	raw["blocking.recall"] = recall
	raw["blocking.peak_backlog"] = float64(c["blocking_stream_peak_backlog"])
	raw["dedup.memo_hit_rate"] = share(c["score_memo_hits"], c["score_memo_misses"])
	raw["dedup.pairs_scored"] = float64(c["score_pairs_scored"])
	return nil
}

// check counts one correctness check as an op, failed when err is not nil.
func (l *lap) check(name string, err error) {
	l.res.ops++
	if err != nil {
		l.res.failed++
		l.res.failures = append(l.res.failures, fmt.Sprintf("lap %d: %s: %v", l.n, name, err))
	}
}

// hostSpinIters is a fixed amount of integer work, about 30 ms on the sandbox
// this benchmark was tuned on. Its time per lap says how fast and how noisy
// the host was during the run; it moves with the host, never with the code.
const hostSpinIters = 16_000_000

func (l *lap) hostReference() {
	start := time.Now()
	x := uint64(l.seed) | 1
	for i := 0; i < hostSpinIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	l.res.sink += float64(x)
	l.res.raw["bench.host_ref_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
}

// heapSampler samples the live heap on its own goroutine until stopped.
type heapSampler struct {
	quit chan struct{}
	done chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan uint64)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(heapInterval)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-tick.C:
			case <-h.quit:
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// stop ends the sampler, waits for it and returns the peak it saw.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	return <-h.done
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// copyDir copies the regular files of a flat directory.
func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
