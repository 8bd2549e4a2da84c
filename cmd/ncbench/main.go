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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
)

// experiments are the names -exp takes besides "all".
const experiments = "table1,table2,table3,table4,figure1,figure3,figure4a,figure4b,figure4c,figure5,figure5cmp,ablations,scalesweep"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process state passed in: the exit code comes back
// instead of os.Exit, so the tests drive the whole command.
func run(args []string, out, stderr io.Writer) int {
	logger := log.New(stderr, "ncbench: ", 0)
	fs := flag.NewFlagSet("ncbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scaleS = fs.String("scale", "small", "experiment scale: tiny|small|medium|large")
		exp    = fs.String("exp", "all", "comma-separated experiments: all or any of "+experiments)
		top    = fs.Int("top", 100, "clusters per NC1-NC3 customization")
		seed   = fs.Int64("seed", 1, "workspace seed")
		mdPath = fs.String("md", "", "also write a markdown report of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

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
		logger.Printf("unknown -scale %q (want tiny|small|medium|large)", *scaleS)
		return 2
	}
	scale.Seed = *seed

	wanted := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		e = strings.TrimSpace(e)
		if e != "all" && !slices.Contains(strings.Split(experiments, ","), e) {
			logger.Printf("unknown experiment %q in -exp (want all or any of %s)", e, experiments)
			return 2
		}
		wanted[e] = true
	}
	all := wanted["all"]
	run := func(name string) bool { return all || wanted[name] }

	w := bench.NewWorkspace(scale)
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
		bench.RunAblationThreshold(w, *top, out)
	}
	if run("scalesweep") {
		bench.RunScaleSweep(scale.Seed, []int{scale.InitialVoters, scale.InitialVoters * 4}, scale.Years, out)
	}
	if *mdPath != "" {
		f, err := os.Create(*mdPath)
		if err != nil {
			logger.Print(err)
			return 1
		}
		report.WriteMarkdown(f)
		if err := f.Close(); err != nil {
			logger.Print(err)
			return 1
		}
		fmt.Fprintf(out, "wrote markdown report to %s\n", *mdPath)
	}
	return 0
}
