// Command benchmark is the repository's end-to-end benchmark: it walks the
// whole pipeline (ncgen -> ncimport -scores -> ncserve cold start ->
// ncimport -delta + reload -> serving load -> ncdedup -stream) through the
// layers' public functions, lap after lap, and reports eleven end-to-end
// metrics or, on a traced run, the per-layer budget behind them. README.md
// holds the glossary, the noise measurements behind the lap design and the
// first recorded numbers.
//
// Usage (from this directory; ./run.sh wraps the same binary for the driver):
//
//	go run . -workload register -seed 1              # plain run
//	go run . -workload churn -seed 1 -trace 1        # traced run, writes the span file
//	go run . -workload census -seed 1 -aa 5          # five runs back to back, spread per metric
//	go run . -workload census -seed 1 -update-golden # rewrite golden/census-seed1.json
package main

import (
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

//go:embed golden/*.json
var goldenFS embed.FS

// options are the command line of one invocation.
type options struct {
	workload     string
	seed         int64
	laps         int
	seconds      float64
	trace        bool
	traceFile    string
	aa           int
	aaSeeds      bool
	updateGolden bool
	workDir      string
}

// minLaps is how many measured laps a run makes even when -seconds has passed.
const minLaps = 3

// shortWindow flags a timed window too short to repeat well: one-off
// interference is a large share of it (README.md, "Why laps"). The workload
// table aims at 0.2 to 0.5 s per window.
const shortWindow = 0.15

func main() {
	var o options
	var trace string
	flag.StringVar(&o.workload, "workload", "", "register shape to run: register, churn or census")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the synthetic register and of every sampled input")
	flag.IntVar(&o.laps, "laps", 8, "measured laps after the warm-up lap")
	flag.Float64Var(&o.seconds, "seconds", 0, "stop starting measured laps after this long (0 = no cap; never fewer than 3 laps)")
	flag.StringVar(&trace, "trace", "0", "1 = traced run: record spans, make the isolating calls, report per-layer metrics")
	flag.StringVar(&o.traceFile, "trace-file", "", "span file of a traced run (default <workdir>/trace-<workload>-seed<n>.json)")
	flag.IntVar(&o.aa, "aa", 0, "run the workload N times back to back and print each end-to-end metric's spread against half its bound")
	flag.BoolVar(&o.aaSeeds, "aa-seeds", false, "with -aa: run i uses seed+i, the acceptance rule's ten-seed protocol")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "rewrite golden/<workload>-seed1.json from this run (seed 1 only)")
	flag.StringVar(&o.workDir, "workdir", ".bench_work", "directory for the laps' temporary files")
	flag.Parse()
	switch trace {
	case "0", "":
	case "1":
		o.trace = true
	default:
		fatal(fmt.Errorf("-trace %q: want 0 or 1", trace))
	}
	sh, err := shapeByName(o.workload)
	if err != nil {
		fatal(err)
	}
	if o.laps < 1 {
		fatal(errors.New("-laps must be at least 1"))
	}
	// One P unless the caller sets GOMAXPROCS: on a shared host the capacity
	// of a second CPU comes and goes over minutes, and only single-threaded
	// time repeats (README.md, "Why one P").
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	if o.aa > 0 {
		fatal(runAA(sh, o, os.Stdout))
		return
	}
	res, err := run(sh, o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if o.updateGolden {
		if o.seed != 1 {
			fatal(errors.New("-update-golden records seed 1 only"))
		}
		path := goldenPath(goldenDir(), sh.name)
		if err := writeGolden(path, res.facts); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", path)
	}
	// The result line is the last line of standard output.
	line, err := json.Marshal(res.result(o.trace))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// goldenDir is where -update-golden writes: this package's golden directory,
// from the repository root or from the package directory.
func goldenDir() string {
	if st, err := os.Stat("benchmark/golden"); err == nil && st.IsDir() {
		return "benchmark/golden"
	}
	return "golden"
}

// runResult is one run: a warm-up lap and the measured laps.
type runResult struct {
	sh     shape
	opts   options
	laps   []*lapResult // measured laps
	facts  facts        // lap 0's, which every lap must equal
	e2e    map[string]float64
	layer  map[string]float64 // traced run only
	budget map[string]map[string]float64
	// attempted and failed count ops over every lap, the warm-up included.
	attempted, failed int64
	failures          []string
}

func (r *runResult) correct() bool { return r.failed == 0 && len(r.failures) == 0 }

// driverResult is the line the driver reads.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result renders the run for the driver: the end-to-end metrics of a plain
// run, the per-layer metrics of a traced one.
func (r *runResult) result(traced bool) driverResult {
	defs, values := endToEnd, r.e2e
	if traced {
		defs, values = perLayer, r.layer
	}
	out := driverResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricValue{values[d.Name], d.Unit}
	}
	return out
}

// run makes one run of the workload — a warm-up lap, then the measured laps —
// checks every lap's outputs and prints the report to w.
func run(sh shape, o options, w io.Writer) (*runResult, error) {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(o.workDir, sh.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	env := &runEnv{
		sh: sh, seed: o.seed, workDir: workDir, nproc: runtime.GOMAXPROCS(0),
		logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if o.trace {
		env.tr = newTracer()
	}
	res := &runResult{sh: sh, opts: o}
	began := time.Now()
	var measureStart time.Time
	for n := 0; n <= o.laps; n++ {
		if n == 1 {
			measureStart = time.Now()
		}
		if n > minLaps && o.seconds > 0 && time.Since(measureStart).Seconds() >= o.seconds {
			break
		}
		lap, err := env.runLap(n)
		if err != nil {
			return nil, fmt.Errorf("lap %d: %w", n, err)
		}
		if env.tr != nil {
			collectSpans(sh, env.tr.spans, n, lap.raw)
		}
		res.attempted += lap.ops
		res.failed += lap.failed
		res.failures = append(res.failures, lap.failures...)
		if n == 0 {
			res.facts = lap.facts
			res.checkGolden()
			continue
		}
		res.attempted++ // lap-to-lap identity is one more check
		if diff := res.facts.diff(lap.facts); len(diff) > 0 {
			res.failed++
			res.failures = append(res.failures, fmt.Sprintf("lap %d differs from lap 0:\n  %s", n, joinLines(diff)))
		}
		res.laps = append(res.laps, lap)
	}
	res.e2e = endToEndValues(sh, res.laps)
	if env.tr != nil {
		spansPerLap := len(env.tr.spans) / (len(res.laps) + 1)
		res.layer = perLayerValues(res.laps,
			traceOverheadPct(spansPerLap, sh.hotRequests+sh.wideRequests, res.e2e["lap_s"]))
		res.budget = phaseBudgets(sh, env.tr.spans, len(res.laps))
		path := o.traceFile
		if path == "" {
			path = filepath.Join(o.workDir, fmt.Sprintf("trace-%s-seed%d.json", sh.name, o.seed))
		}
		if err := writeTrace(path, env.tr.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "trace: %d spans -> %s\n", len(env.tr.spans), path)
	}
	res.print(w, time.Since(began))
	return res, nil
}

// checkGolden compares lap 0's facts with the checked-in golden file, which
// exists for seed 1 only; -update-golden skips the comparison it is about to
// overwrite.
func (r *runResult) checkGolden() {
	if r.opts.seed != 1 || r.opts.updateGolden {
		return
	}
	data, err := goldenFS.ReadFile(goldenPath("golden", r.sh.name))
	if errors.Is(err, fs.ErrNotExist) {
		return // a shape without a golden file (the smoke test's)
	}
	r.attempted++
	var want facts
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err == nil {
		if diff := want.diff(r.facts); len(diff) > 0 {
			err = fmt.Errorf("golden %s-seed1.json differs:\n  %s", r.sh.name, joinLines(diff))
		}
	}
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

// phaseBudgets returns, per phase, each layer's self time in one execution of
// the phase, on the lap whose phase was fastest.
func phaseBudgets(sh shape, spans []span, laps int) map[string]map[string]float64 {
	reps := map[string]int{"setup": sh.setupReps, "cold_start": sh.coldReps}
	self := selfTimes(spans)
	out := map[string]map[string]float64{}
	for _, phase := range phaseNames {
		root := "bench." + phase
		best, bestLap := time.Duration(0), -1
		for _, s := range spans {
			if s.Name == root && s.Lap >= 1 && s.Lap <= laps && (bestLap < 0 || s.duration() < best) {
				best, bestLap = s.duration(), s.Lap
			}
		}
		if bestLap < 0 {
			continue
		}
		out[phase] = map[string]float64{}
		for layer, d := range layerSelf(spans, self, root, bestLap) {
			out[phase][layer] = d.Seconds() / float64(max(reps[phase], 1))
		}
	}
	return out
}

// traceFile is the span file of a traced run.
type traceFile struct {
	Env   map[string]any `json:"env"`
	Spans []span         `json:"spans"`
}

func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(traceFile{Env: environment(), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// environment is the stamp every output carries.
func environment() map[string]any {
	revision := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				revision = s.Value
			}
		}
	}
	return map[string]any{
		"go":          runtime.Version(),
		"numCPU":      runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"vcsRevision": revision,
	}
}

// print writes the human-readable report.
func (r *runResult) print(w io.Writer, elapsed time.Duration) {
	env := environment()
	sh := r.sh
	fmt.Fprintf(w, "benchmark %s seed %d: %d measured laps after 1 warm-up, %.1f s\n", sh.name, r.opts.seed, len(r.laps), elapsed.Seconds())
	fmt.Fprintf(w, "env: %v, NumCPU %v, GOMAXPROCS %v, vcs revision %v\n", env["go"], env["numCPU"], env["gomaxprocs"], env["vcsRevision"])
	fmt.Fprintf(w, "shape: %d voters, Calendar(%d,%d) = %d snapshots, change feed %v, setup x%d, cold_start x%d, hot %d req, wide %d req, dedup top %d, %d clients\n",
		sh.voters, sh.startYear, sh.years, len(sh.config(r.opts.seed).Snapshots), sh.changeFeed, sh.setupReps, sh.coldReps,
		sh.hotRequests, sh.wideRequests, sh.selectTop, runtime.GOMAXPROCS(0))
	f := r.facts
	fmt.Fprintf(w, "corpus: %d base rows -> %d records in %d clusters (%d pairs); after refresh of %d rows: %d records, %d clusters, %d pairs; dedup subset %d records, %d candidate pairs\n",
		f.BaseRows, f.BaseRecords, f.BaseClusters, f.BasePairs, f.RefreshRows, f.Records, f.Clusters, f.Pairs, f.DedupRecords, f.DedupPairs)

	fmt.Fprintf(w, "\n%-12s %10s %10s %10s %10s\n", "phase", "fastest s", "median s", "slowest s", "window s")
	for p, name := range phaseNames {
		col := phaseColumn(r.laps, p)
		var windows []float64
		for _, l := range r.laps {
			windows = append(windows, l.window[p])
		}
		note := ""
		if fastest(windows) < shortWindow {
			note = "  (short window)"
		}
		fmt.Fprintf(w, "%-12s %10.4f %10.4f %10.4f %10.4f%s\n", name, fastest(col), median(col), slowest(col), fastest(windows), note)
	}
	var walls, timed []float64
	for _, l := range r.laps {
		walls = append(walls, l.wall)
		timed = append(timed, sum(l.window[:]))
	}
	fmt.Fprintf(w, "lap wall: median %.2f s, of which timed windows %.2f s\n", median(walls), median(timed))
	ref := column(r.laps, "bench.host_ref_ms")
	fmt.Fprintf(w, "host: bench.host_ref_ms %.2f (fastest), bench.host_noise_ratio %.3f (median / fastest)\n", fastest(ref), median(ref)/fastest(ref))

	fmt.Fprintf(w, "\nend-to-end metrics:\n")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-28s %14.4f %-8s (%s is better, bound %.0f%%)\n", d.Name, r.e2e[d.Name], d.Unit, d.Better, 100*d.Bound)
	}
	fmt.Fprintf(w, "  %-28s %14d\n  %-28s %14d\n", "ops_attempted", r.attempted, "ops_failed", r.failed)

	if r.layer != nil {
		fmt.Fprintf(w, "\nper-layer metrics:\n")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-36s %16.4f %s\n", d.Name, r.layer[d.Name], d.Unit)
		}
		fmt.Fprintf(w, "  latency samples pooled: hot %d, wide %d\n",
			len(pooled(r.laps, hotLatencies, "")), len(pooled(r.laps, wideLatencies, "")))
		fmt.Fprintf(w, "\nself time per layer in one execution of each phase, on the phase's fastest lap:\n")
		for _, phase := range phaseNames {
			layers := r.budget[phase]
			names := sortedKeys(layers)
			sort.SliceStable(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
			total := 0.0
			for _, d := range layers {
				total += d
			}
			var parts []string
			for _, name := range names {
				parts = append(parts, fmt.Sprintf("%s %.3f s (%.0f%%)", name, layers[name], 100*layers[name]/total))
			}
			fmt.Fprintf(w, "  %-11s %s\n", phase, strings.Join(parts, ", "))
		}
	}
	if len(r.failures) > 0 {
		fmt.Fprintf(w, "\nFAILED checks:\n  %s\n", joinLines(r.failures))
	} else {
		fmt.Fprintf(w, "\nall checks passed\n")
	}
}

// runAA runs the workload N times back to back and prints, per end-to-end
// metric, the values, range / median, interquartile distance / median and a
// verdict against half the metric's bound.
func runAA(sh shape, o options, w io.Writer) error {
	values := map[string][]float64{}
	for i := 0; i < o.aa; i++ {
		ro := o
		ro.aa = 0
		if o.aaSeeds {
			ro.seed = o.seed + int64(i)
		}
		res, err := run(sh, ro, io.Discard)
		if err != nil {
			return err
		}
		if !res.correct() {
			return fmt.Errorf("run %d failed its checks:\n  %s", i, joinLines(res.failures))
		}
		for _, d := range endToEnd {
			values[d.Name] = append(values[d.Name], res.e2e[d.Name])
		}
		fmt.Fprintf(w, "run %d/%d seed %d: lap_s %.3f\n", i+1, o.aa, ro.seed, res.e2e["lap_s"])
	}
	fmt.Fprintf(w, "\nA/A %s, %d runs, seeds vary: %v\n", sh.name, o.aa, o.aaSeeds)
	fmt.Fprintf(w, "%-28s %12s %9s %9s %7s  %s\n", "metric", "median", "range/med", "iqr/med", "bound/2", "verdict")
	for _, d := range endToEnd {
		v := values[d.Name]
		rng := (slowest(v) - fastest(v)) / median(v)
		verdict := "PASS"
		if rng > d.Bound/2 {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%-28s %12.4f %8.2f%% %8.2f%% %6.1f%%  %s  %s\n",
			d.Name, median(v), 100*rng, 100*spread(v), 100*d.Bound/2, verdict, formatValues(v))
	}
	return nil
}

func formatValues(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
