package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corrupt"
	"repro/internal/docstore"
	"repro/internal/hetero"
	"repro/internal/obs"
	"repro/internal/simil"
	"repro/internal/voter"
)

// The isolating calls of a traced lap: each runs one layer's public function
// alone, outside every timed window, to split a span the benchmark can only
// observe whole (provenance.Save contains the docstore save) or to give the
// floor under a layer (a bare TSV scan under the import). The untraced run
// makes none of them.

// similPairs is how many value pairs the similarity kernels are timed over.
const similPairs = 20000

// observeCalls is how many Metrics.Observe calls each client goroutine makes.
const observeCalls = 100000

// isolateBuild runs after the build window.
func (l *lap) isolateBuild(db *docstore.DB, saveSpan int) error {
	raw := l.res.raw

	start := time.Now()
	rows := 0
	for _, path := range l.base {
		snap, err := voter.ReadSnapshotFile(path)
		if err != nil {
			return err
		}
		for _, r := range snap.Records {
			h := voter.HashRecord(r, voter.HashTrimmed)
			l.res.sink += float64(h[0])
		}
		rows += len(snap.Records)
	}
	raw["voter.scan_s"] = time.Since(start).Seconds()
	raw["voter.scan_rows"] = float64(rows)

	start = time.Now()
	l.res.sink += hetero.DatasetWeights(l.ds, hetero.AllColumns())[0]
	l.res.sink += hetero.DatasetWeights(l.ds, hetero.PersonColumns())[0]
	raw["hetero.weights_s"] = time.Since(start).Seconds()

	alone := filepath.Join(l.dir, "store-alone")
	start = time.Now()
	if err := db.SaveParallelOpts(alone, docstore.SaveOpts{Stride: storeStride}); err != nil {
		return err
	}
	d := time.Since(start)
	raw["docstore.save_s"] = d.Seconds()
	l.tr.report(saveSpan, "docstore.save", l.tr.startOf(saveSpan), d)
	if err := os.RemoveAll(alone); err != nil {
		return err
	}

	l.similKernels()
	l.observeContention()
	return nil
}

// isolateDirtySave repeats the refresh's dirty-segment save, without the
// provenance stamp, on a copy of the store as it was before the refresh.
func (l *lap) isolateDirtySave(db *docstore.DB, storeCopy string, dl *core.Delta, saveSpan int) error {
	start := time.Now()
	if err := db.SaveParallelOpts(storeCopy, docstore.SaveOpts{Stride: storeStride, Dirty: dl.DirtyIDs()}); err != nil {
		return err
	}
	d := time.Since(start)
	l.res.raw["docstore.dirty_save_s"] = d.Seconds()
	l.tr.report(saveSpan, "docstore.save", l.tr.startOf(saveSpan), d)
	return os.RemoveAll(storeCopy)
}

// similKernels times the four string kernels the scorers spend their time in
// over value pairs sampled by seed from the lap's clusters: two records of one
// cluster, one person attribute.
func (l *lap) similKernels() {
	var multi []*core.Cluster
	l.ds.Clusters(func(c *core.Cluster) bool {
		if len(c.Records) >= 2 {
			multi = append(multi, c)
		}
		return true
	})
	if len(multi) == 0 {
		return
	}
	cols := hetero.PersonColumns()
	rng := rand.New(rand.NewSource(corrupt.SubSeed(l.seed, 72)))
	pairs := make([][2]string, similPairs)
	for i := range pairs {
		c := multi[rng.Intn(len(multi))]
		a := rng.Intn(len(c.Records))
		b := (a + 1 + rng.Intn(len(c.Records)-1)) % len(c.Records)
		col := cols[rng.Intn(len(cols))]
		pairs[i] = [2]string{c.Records[a].Rec.Values[col], c.Records[b].Rec.Values[col]}
	}
	for name, kernel := range map[string]func(a, b string) float64{
		"simil.dl_ns_per_pair":           simil.DamerauLevenshteinSimilarity,
		"simil.monge_elkan_ns_per_pair":  simil.MongeElkanDL,
		"simil.jaro_winkler_ns_per_pair": simil.JaroWinkler,
		"simil.trigram_ns_per_pair":      simil.TrigramJaccard,
	} {
		start := time.Now()
		for _, p := range pairs {
			l.res.sink += kernel(p[0], p[1])
		}
		l.res.raw[name] = float64(time.Since(start).Nanoseconds()) / similPairs
	}
}

// observeContention times Metrics.Observe, which every request passes through
// and which takes one registry-wide mutex, from nproc goroutines at once.
func (l *lap) observeContention() {
	m := obs.NewMetrics()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < l.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < observeCalls; i++ {
				m.Observe("GET /v1/records/{ncid}", 200, 50*time.Microsecond)
			}
		}()
	}
	wg.Wait()
	l.res.raw["obs.observe_ns_per_call"] = float64(time.Since(start).Nanoseconds()) / float64(l.nproc*observeCalls)
}
