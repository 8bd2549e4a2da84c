package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/deltafile"
	"repro/internal/docstore"
	"repro/internal/hetero"
	"repro/internal/plaus"
	"repro/internal/synth"
)

// DeltaPoint is one row of the incremental-application experiment: the same
// delta file applied through the full-reimport path and through
// ApplySnapshotDelta with dirty-cluster rescoring and a dirty-segment save.
type DeltaPoint struct {
	Fraction          float64 `json:"fraction"`
	DeltaRows         int     `json:"deltaRows"`
	ClustersTotal     int     `json:"clustersTotal"`
	ClustersChanged   int     `json:"clustersChanged"`
	ClustersTouched   int     `json:"clustersTouched"`
	ClustersRescored  int     `json:"clustersRescored"`
	SegmentsTotal     int64   `json:"segmentsTotal"`
	SegmentsRewritten int64   `json:"segmentsRewritten"`
	SegmentsReused    int64   `json:"segmentsReused"`
	FullSeconds       float64 `json:"fullSeconds"`
	DeltaSeconds      float64 `json:"deltaSeconds"`
	Speedup           float64 `json:"speedup"`
	Identical         bool    `json:"identical"`
}

// DeltaResult is the machine-readable output of the experiment
// (BENCH_delta.json).
type DeltaResult struct {
	GOMAXPROCS int          `json:"gomaxprocs"`
	Workers    int          `json:"workers"`
	BaseFiles  int          `json:"baseFiles"`
	BaseRows   int          `json:"baseRows"`
	Clusters   int          `json:"clusters"`
	Stride     int          `json:"stride"`
	Points     []DeltaPoint `json:"points"`
}

// DeltaFractions is the changed-fraction ladder of the experiment.
var DeltaFractions = []float64{0.01, 0.05, 0.25, 1.0}

// deltaBenchStride keeps the store spread over enough segments that
// dirty-segment reuse has something to reuse at every scale.
const deltaBenchStride = 64

// counterObs collects docstore counters for one timed save.
type counterObs struct {
	mu sync.Mutex
	m  map[string]int64
}

func (o *counterObs) AddN(name string, n int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.m == nil {
		o.m = map[string]int64{}
	}
	o.m[name] += n
}

func (o *counterObs) get(name string) int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.m[name]
}

// RunDeltaBench measures incremental snapshot application against the full
// reimport it replaces, over the changed-fraction ladder. Both arms maintain
// scores after every published round and persist with the stable stride
// layout, so their outputs are bit-comparable; the delta arm starts from the
// resident state a continuously-updating service holds (dataset, fingerprint
// index, previously saved store), which is exactly the asymmetry the
// experiment quantifies. workers <= 0 selects GOMAXPROCS for every parallel
// stage. jsonPath, when non-empty, receives the result as machine-readable
// JSON (BENCH_delta.json).
func RunDeltaBench(scale Scale, workers int, jsonPath string, out io.Writer) (DeltaResult, error) {
	res := DeltaResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Stride:     deltaBenchStride,
	}
	regDir, err := os.MkdirTemp("", "ncdelta")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(regDir)

	cfg := synth.DefaultConfig(scale.Seed, scale.InitialVoters)
	cfg.Snapshots = synth.Calendar(2008, scale.Years)
	basePaths, err := synth.WriteAllParallel(cfg, regDir, 0)
	if err != nil {
		return res, err
	}

	// buildBase imports and scores the base register round by round; when
	// storeDir is non-empty each round is persisted there, leaving the
	// stride-layout store the delta arm re-stamps.
	buildBase := func(storeDir string) (*core.Dataset, int, error) {
		d := core.NewDataset(core.RemoveTrimmed)
		rows := 0
		for _, p := range basePaths {
			st, err := d.ImportSnapshotFileParallelOpts(p, core.IngestOptions{Workers: workers})
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", p, err)
			}
			rows += st.Rows
			d.Publish()
			plaus.UpdateParallel(d, workers)
			hetero.UpdateParallel(d, workers)
		}
		if storeDir != "" {
			if err := d.ToDocDB().SaveParallelOpts(storeDir, docstore.SaveOpts{
				Workers: workers, Stride: deltaBenchStride,
			}); err != nil {
				return nil, 0, err
			}
		}
		return d, rows, nil
	}

	proto, baseRows, err := buildBase("")
	if err != nil {
		return res, err
	}
	res.BaseFiles = len(basePaths)
	res.BaseRows = baseRows
	res.Clusters = proto.NumClusters()
	const deltaDate = "2097-01-01"

	fmt.Fprintf(out, "Delta apply vs full reimport: %d base files (%d rows), %d clusters, trimming mode, %d workers\n",
		len(basePaths), baseRows, proto.NumClusters(), workers)
	fmt.Fprintf(out, "%9s %9s %9s %9s %9s %9s %10s %10s %8s %10s\n",
		"fraction", "rows", "changed", "rescored", "seg rw", "seg reuse", "full s", "delta s", "speedup", "identical")

	for _, fraction := range DeltaFractions {
		deltaPath, changed, err := deltafile.Write(regDir, proto, deltaDate, fraction, true)
		if err != nil {
			return res, err
		}

		// Delta arm: resident dataset + index + saved store, then the timed
		// incremental round.
		workDir, err := os.MkdirTemp("", "ncdelta-store")
		if err != nil {
			return res, err
		}
		deltaDS, _, err := buildBase(workDir)
		if err != nil {
			os.RemoveAll(workDir)
			return res, err
		}
		ix := core.BuildFingerprintIndex(deltaDS)
		obs := &counterObs{}
		deltaStart := time.Now()
		dl, err := deltaDS.ApplySnapshotDelta(deltaPath, core.DeltaOptions{Workers: workers, Index: ix})
		if err != nil {
			os.RemoveAll(workDir)
			return res, err
		}
		deltaDS.Publish()
		plaus.UpdateDelta(deltaDS, dl, workers)
		hetero.UpdateDelta(deltaDS, dl, workers)
		if err := deltaDS.ToDocDB().SaveParallelOpts(workDir, docstore.SaveOpts{
			Workers: workers, Stride: deltaBenchStride, Dirty: dl.DirtyIDs(), Observer: obs,
		}); err != nil {
			os.RemoveAll(workDir)
			return res, err
		}
		deltaSeconds := time.Since(deltaStart).Seconds()

		// Full arm: the same end state rebuilt from nothing.
		fullDir, err := os.MkdirTemp("", "ncdelta-full")
		if err != nil {
			os.RemoveAll(workDir)
			return res, err
		}
		fullStart := time.Now()
		fullDS := core.NewDataset(core.RemoveTrimmed)
		importErr := func() error {
			for _, p := range append(append([]string{}, basePaths...), deltaPath) {
				if _, err := fullDS.ImportSnapshotFileParallelOpts(p, core.IngestOptions{Workers: workers}); err != nil {
					return fmt.Errorf("%s: %w", p, err)
				}
				fullDS.Publish()
				plaus.UpdateParallel(fullDS, workers)
				hetero.UpdateParallel(fullDS, workers)
			}
			return fullDS.ToDocDB().SaveParallelOpts(fullDir, docstore.SaveOpts{
				Workers: workers, Stride: deltaBenchStride,
			})
		}()
		fullSeconds := time.Since(fullStart).Seconds()

		identical := importErr == nil &&
			reflect.DeepEqual(fullDS, deltaDS) &&
			sameDirBytes(fullDir, workDir)
		os.RemoveAll(workDir)
		os.RemoveAll(fullDir)
		os.Remove(deltaPath)
		if importErr != nil {
			return res, importErr
		}

		p := DeltaPoint{
			Fraction:          fraction,
			DeltaRows:         dl.Stats.Rows,
			ClustersTotal:     deltaDS.NumClusters(),
			ClustersChanged:   changed,
			ClustersTouched:   dl.Stats.TouchedClusters,
			ClustersRescored:  dl.Stats.DirtyClusters,
			SegmentsRewritten: obs.get(docstore.CounterSegmentsWritten),
			SegmentsReused:    obs.get(docstore.CounterSegmentsReused),
			FullSeconds:       fullSeconds,
			DeltaSeconds:      deltaSeconds,
			Identical:         identical,
		}
		p.SegmentsTotal = p.SegmentsRewritten + p.SegmentsReused
		if deltaSeconds > 0 {
			p.Speedup = fullSeconds / deltaSeconds
		}
		res.Points = append(res.Points, p)
		fmt.Fprintf(out, "%9.2f %9d %9d %9d %9d %9d %10.3f %10.3f %7.2fx %10v\n",
			p.Fraction, p.DeltaRows, p.ClustersChanged, p.ClustersRescored,
			p.SegmentsRewritten, p.SegmentsReused, p.FullSeconds, p.DeltaSeconds, p.Speedup, p.Identical)
	}

	if jsonPath != "" {
		body, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return res, err
		}
		if err := os.WriteFile(jsonPath, append(body, '\n'), 0o644); err != nil {
			return res, err
		}
	}
	return res, nil
}

// sameDirBytes reports whether two directories hold the same file names with
// the same contents.
func sameDirBytes(a, b string) bool {
	read := func(dir string) (map[string][]byte, error) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		out := map[string][]byte{}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			data, err := os.ReadFile(dir + string(os.PathSeparator) + e.Name())
			if err != nil {
				return nil, err
			}
			out[e.Name()] = data
		}
		return out, nil
	}
	am, err := read(a)
	if err != nil {
		return false
	}
	bm, err := read(b)
	if err != nil {
		return false
	}
	return reflect.DeepEqual(am, bm)
}
