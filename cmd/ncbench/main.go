// Command ncbench regenerates the paper's tables and figures end-to-end at
// a configurable scale and prints them in the paper's layout. It is the
// harness behind EXPERIMENTS.md.
//
// Usage:
//
//	ncbench -scale small -exp all
//	ncbench -scale medium -exp table2,figure5
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ncbench: ")
	var (
		scaleS = flag.String("scale", "small", "experiment scale: tiny|small|medium|large")
		exp    = flag.String("exp", "all", "comma-separated experiments: table1,table2,table3,table4,figure1,figure3,figure4a,figure4b,figure4c,figure5,figure5cmp,ablations,scalesweep,ingest,matching,blocking,docstore,delta (ingest, matching, blocking, docstore and delta are opt-in, not part of all)")
		mjson  = flag.String("matching-json", "BENCH_matching.json", "JSON output path of the matching experiment (empty to skip)")
		bjson  = flag.String("blocking-json", "BENCH_blocking.json", "JSON output path of the blocking experiment (empty to skip)")
		djson  = flag.String("docstore-json", "BENCH_docstore.json", "JSON output path of the docstore experiment (empty to skip)")
		dljson = flag.String("delta-json", "BENCH_delta.json", "JSON output path of the delta experiment (empty to skip)")
		dlwork = flag.Int("delta-workers", 0, "workers of the delta experiment (0 = GOMAXPROCS)")
		top    = flag.Int("top", 100, "clusters per NC1-NC3 customization")
		seed   = flag.Int64("seed", 1, "workspace seed")
		mdPath = flag.String("md", "", "also write a markdown report of the run to this file")
	)
	flag.Parse()

	var scale bench.Scale
	switch *scaleS {
	case "tiny":
		scale = bench.Tiny
	case "small":
		scale = bench.Small
	case "medium":
		scale = bench.Medium
	case "large":
		scale = bench.Large
	default:
		log.Fatalf("unknown scale %q", *scaleS)
	}
	scale.Seed = *seed

	wanted := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		wanted[strings.TrimSpace(e)] = true
	}
	all := wanted["all"]
	run := func(name string) bool { return all || wanted[name] }

	w := bench.NewWorkspace(scale)
	out := os.Stdout
	fmt.Fprintf(out, "ncbench scale=%s (initial voters %d, %d years, seed %d)\n\n",
		*scaleS, scale.InitialVoters, scale.Years, scale.Seed)

	report := bench.Report{Scale: scale}
	if run("table1") {
		t1 := bench.RunTable1(w, out)
		report.Table1 = &t1
		fmt.Fprintln(out)
	}
	if run("table2") {
		t2 := bench.RunTable2(w, out)
		report.Table2 = &t2
		fmt.Fprintln(out)
	}
	if run("figure1") {
		bench.RunFigure1(w, out)
		fmt.Fprintln(out)
	}
	if run("figure3") {
		f3 := bench.RunFigure3Examples(out)
		report.Figure3 = &f3
		fmt.Fprintln(out)
	}
	if run("figure4a") {
		f4a := bench.RunFigure4a(w, out)
		report.Figure4a = &f4a
		fmt.Fprintln(out)
	}
	if run("figure4b") {
		f4b := bench.RunFigure4b(w, out)
		report.Figure4b = &f4b
		fmt.Fprintln(out)
	}
	if run("figure4c") {
		f4c := bench.RunFigure4c(scale.Seed, out)
		report.Figure4c = &f4c
		fmt.Fprintln(out)
	}
	if run("table3") {
		t3 := bench.RunTable3(w, *top, out)
		report.Table3 = &t3
		fmt.Fprintln(out)
	}
	if run("table4") {
		t4 := bench.RunTable4(w, out)
		report.Table4 = &t4
		fmt.Fprintln(out)
	}
	if run("figure5") {
		report.Figure5 = bench.RunFigure5(w, *top, out)
		fmt.Fprintln(out)
	}
	if run("figure5cmp") {
		report.Figure5C = bench.RunFigure5Comparators(scale.Seed, out)
		fmt.Fprintln(out)
	}
	if run("ablations") {
		bench.RunAblationHashing(w, out)
		bench.RunAblationWindow(w, *top, out)
		bench.RunAblationWeights(w, *top, out)
		bench.RunAblationGeneration(w, out)
		bench.RunAblationNameScoring(w, out)
		bench.RunAblationBlocking(w, *top, out)
		bench.RunAblationPollution(w, out)
		bench.RunAblationMeasures(w, *top, out)
		bench.RunAblationThreshold(w, *top, out)
		bench.RunAblationFS(w, *top, out)
	}
	if run("scalesweep") {
		bench.RunScaleSweep(scale.Seed, []int{scale.InitialVoters, scale.InitialVoters * 4}, scale.Years, out)
	}
	if wanted["ingest"] {
		if _, err := bench.RunIngestThroughput(scale, bench.DefaultIngestWorkers(), out); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if wanted["matching"] {
		if _, err := bench.RunMatchingThroughput(w, *top, bench.DefaultMatchingWorkers(), *mjson, out); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if wanted["blocking"] {
		if _, err := bench.RunBlockingBench(w, *top, bench.DefaultBlockingWorkers(), *bjson, out); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if wanted["docstore"] {
		if _, err := bench.RunDocstoreBench(w, bench.DefaultDocstoreWorkers(), *djson, out); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if wanted["delta"] {
		if _, err := bench.RunDeltaBench(scale, *dlwork, *dljson, out); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}
	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			log.Fatal(err)
		}
		report.WriteMarkdown(f)
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(out, "wrote markdown report to %s\n", *mdPath)
	}
}
