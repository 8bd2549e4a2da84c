// Command ncgen generates a synthetic North Carolina voter register: one
// TSV snapshot file per configured snapshot date, in the 90-attribute
// schema, with realistic manual-entry errors, format drift and a small rate
// of unsound NCID reuse.
//
// Usage:
//
//	ncgen -out snapshots/ -voters 5000 -years 13 -seed 1
//
// The snapshots are written on GOMAXPROCS writer goroutines while the next
// one is generated; the files are the same at any count.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/corrupt"
	"repro/internal/provenance"
	"repro/internal/synth"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process state passed in, so the tests drive the whole
// command: usage errors exit 2, failures 1 with one line on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ncgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out     = fs.String("out", "snapshots", "output directory for TSV snapshot files")
		voters  = fs.Int("voters", 2000, "initial registered voters")
		years   = fs.Int("years", 13, "years of snapshot history")
		seed    = fs.Int64("seed", 1, "random seed (same seed, same data)")
		heavy   = fs.Bool("heavy", false, "use the heavy error mix instead of the realistic light one")
		unsound = fs.Float64("unsound", 0.002, "fraction of new voters wrongly reusing a removed NCID")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	cfg := synth.DefaultConfig(*seed, *voters)
	cfg.Snapshots = synth.Calendar(2008, *years)
	cfg.UnsoundRate = *unsound
	errors := "light"
	if *heavy {
		cfg.Errors = corrupt.Heavy()
		errors = "heavy"
	}
	var paths []string
	err := os.MkdirAll(*out, 0o755)
	if err == nil {
		paths, err = synth.WriteAllParallel(cfg, *out, 0)
	}
	if err == nil {
		// Drop the generator descriptor next to the snapshots: ncimport
		// carries it into the store's provenance record, binding the corpus
		// to this exact (tool, seed, parameters) run.
		err = provenance.WriteGeneratorInfo(*out, provenance.GeneratorInfo{
			Tool: "ncgen", Seed: *seed, Voters: *voters, Years: *years,
			Errors: errors, UnsoundRate: *unsound,
		})
	}
	if err != nil {
		log.New(stderr, "ncgen: ", 0).Print(err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %d snapshots to %s (initial voters %d, %d years, seed %d)\n",
		len(paths), *out, *voters, *years, *seed)
	return 0
}
