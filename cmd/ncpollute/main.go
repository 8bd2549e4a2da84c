// Command ncpollute applies the DaPo-hybrid pollution (the paper's future
// work, §8) to a stored test dataset: it injects additional synthetic
// errors and extra duplicates at will — on top of the real outdated values
// — and commits the polluted dataset as a new stamped store whose record
// names the input's corpus root. The gold standard is preserved exactly.
//
// Usage:
//
//	ncpollute -db store/ -out polluted-store/ -fraction 0.5 -intensity 2 -extra 0.3
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/dapo"
	"repro/internal/hetero"
	"repro/internal/provenance"
	"repro/internal/store"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its process state passed in, so the tests drive the whole
// command: usage errors exit 2, failures 1 with one line on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ncpollute", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		db        = fs.String("db", "store", "input document-database directory")
		out       = fs.String("out", "polluted", "output document-database directory")
		seed      = fs.Int64("seed", 1, "pollution seed")
		fraction  = fs.Float64("fraction", 0.25, "fraction of records receiving extra errors")
		intensity = fs.Int("intensity", 1, "error-mix applications per polluted record")
		extra     = fs.Float64("extra", 0.2, "per-cluster probability of an extra synthetic duplicate")
		maxExtra  = fs.Int("maxextra", 1, "cap on synthetic duplicates per cluster")
		scores    = fs.Bool("scores", true, "recompute heterogeneity scores on the polluted data")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "ncpollute: ", 0)

	base, src, err := store.Open(*db, store.OpenOpts{})
	if err != nil {
		logger.Print(err)
		return 1
	}
	cfg := dapo.DefaultConfig(*seed)
	cfg.RecordFraction = *fraction
	cfg.Intensity = *intensity
	cfg.ExtraDuplicateRate = *extra
	cfg.MaxExtraPerCluster = *maxExtra

	polluted, st := dapo.Pollute(base, cfg)
	if *scores {
		fmt.Fprintln(stdout, "recomputing heterogeneity scores ...")
		hetero.UpdateParallel(polluted, 0)
	}
	// The output names its source: the verified input's root and generator.
	meta := provenance.Meta{Source: "ncpollute", Mode: polluted.Mode.String(), Lineage: polluted.SnapshotLineage(),
		Generator: src.Meta.Generator, SourceRoot: src.Root()}
	if _, err := store.Commit(polluted, *out, store.CommitOpts{Meta: meta}); err != nil {
		logger.Print(err)
		return 1
	}
	fmt.Fprintf(stdout, "polluted %d of %d records, added %d synthetic duplicates\n",
		st.PollutedRecords, base.NumRecords(), st.ExtraDuplicates)
	fmt.Fprintf(stdout, "wrote %d clusters / %d records -> %s\n", st.Clusters, st.Records, *out)
	return 0
}
