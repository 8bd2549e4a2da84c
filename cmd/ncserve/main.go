// Command ncserve exposes a stored test dataset over a versioned read-only
// HTTP/JSON API — the exploration companion the paper gets from MongoDB
// Compass (§5) — hardened for high-QPS production use: requests are served
// from immutable, generation-stamped serving snapshots swapped in
// atomically, with a bounded LRU response cache on the hot aggregate
// endpoints, plus structured request logging, per-route metrics, panic
// recovery, per-request timeouts, in-flight limiting and graceful shutdown.
//
// Usage:
//
//	ncserve -db store/ -addr :8080 [-timeout 10s] [-max-inflight 256]
//	        [-grace 10s] [-cache 1024]
//
// Endpoints (unversioned paths redirect to their /v1 twin — 301 for
// GET/HEAD, 308 otherwise). Every /v1 response is a {data, meta, error}
// envelope carrying the snapshot generation (also exposed as the
// X-Dataset-Generation header and a strong ETag; If-None-Match revalidates
// with 304 until the next reload):
//
//	GET /v1/stats                 dataset-level statistics
//	GET /v1/years                 per-year import history (Table 1)
//	GET /v1/histogram             cluster-size histogram (Fig. 1)
//	GET /v1/versions              published versions
//	GET /v1/provenance            the store's verified hash-chained
//	                              provenance record
//	GET /v1/records/{ncid}        one person's record view (O(1) lookup)
//	GET /v1/clusters/{ncid}       one cluster document
//	GET /v1/clusters/summary      aggregation over the served clusters
//	                              (?minSize=&maxSize= filters)
//	GET /v1/clusters?score=heterogeneity&min=0.4&limit=20&cursor=...
//	                              score-range queries over cluster
//	                              summaries, cursor-paginated
//	GET /v1/healthz               readiness (503 until the first snapshot)
//	GET /v1/livez                 liveness (200 as soon as the process is up)
//	GET /metrics                  per-route counters and latency quantiles
//	                              (JSON; ?format=prometheus for text)
//
// The listener binds before the corpus loads (once the -db directory is
// known to exist): /v1/livez answers immediately, /v1/healthz flips from 503
// to 200 when the first snapshot is published. SIGHUP reloads the database
// directory and swaps the new generation in atomically — in-flight requests
// keep their generation, and a failed reload keeps the old one serving.
// Every load checks each file it reads against the store's provenance
// record. Reloads decode through a persistent segment cache: segments whose
// manifest entry is unchanged are neither re-read, re-hashed nor re-parsed
// (rebuilding the dataset from the documents still covers all of them). On
// SIGINT/SIGTERM the server stops accepting connections, drains in-flight
// requests for up to -grace, then exits 0. Every (re)load — segment
// decoding, cluster parsing and the serving-snapshot build — runs on
// GOMAXPROCS workers; what is served is identical at any count.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/docstore"
	"repro/internal/httpapi"
	"repro/internal/store"
)

func main() {
	// The API's request log goes through slog's default logger, which
	// writes through this one.
	log.SetFlags(0)
	log.SetPrefix("ncserve: ")
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters, so tests can drive
// the flag handling and a whole serve-until-SIGTERM cycle. It returns the
// exit code: 0 after a clean drain, 1 when a step failed, 2 for a bad flag.
func run(args []string, stdout, stderr io.Writer) int {
	logger := log.New(stderr, "ncserve: ", 0)
	fs := flag.NewFlagSet("ncserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		db        = fs.String("db", "store", "document-database directory")
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address")
		timeout   = fs.Duration("timeout", 10*time.Second, "per-request deadline (0 disables)")
		inflight  = fs.Int("max-inflight", 256, "max concurrently served requests (0 disables shedding)")
		grace     = fs.Duration("grace", 10*time.Second, "shutdown drain deadline")
		cacheSize = fs.Int("cache", 1024, "response-cache entries (negative disables)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		logger.Print(err)
		return 1
	}
	// A directory that is not there will not appear while the corpus loads:
	// say so before anything listens, not as a server that is alive and
	// never ready.
	if info, err := os.Stat(*db); err != nil {
		return fail(err)
	} else if !info.IsDir() {
		return fail(fmt.Errorf("-db %s: not a directory", *db))
	}

	api := httpapi.NewDeferred(
		httpapi.WithTimeout(*timeout),
		httpapi.WithMaxInflight(*inflight),
		httpapi.WithResponseCache(*cacheSize),
	)

	// load opens the store and publishes it as the next serving generation;
	// a failed reload leaves the previous one serving. The segment cache
	// persists across reloads, so a reload after `ncimport -delta` reads,
	// hashes and parses only the manifests and the rewritten segments.
	// Sharing decoded documents between generations is safe: the serving
	// path never mutates them.
	cache := docstore.NewSegmentCache()
	load := func() error {
		ds, rec, err := store.Open(*db, store.OpenOpts{Cache: cache})
		if err != nil {
			return err
		}
		gen := api.PublishWithProvenance(ds, rec.Encode())
		logger.Printf("generation %d: serving %d clusters / %d records from %s",
			gen, ds.NumClusters(), ds.NumRecords(), *db)
		return nil
	}

	// Bind first, load second: liveness is immediate and readiness is
	// honest — /v1/healthz answers 503 until the first snapshot lands.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(err)
	}
	srv := &http.Server{Handler: api, ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "listening on http://%s (readiness pending first load)\n", ln.Addr())

	// Signals are caught from here on, so one that arrives during the first
	// load drains the server after it instead of killing the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	if err := load(); err != nil {
		srv.Close()
		return fail(err)
	}

	for {
		select {
		case err := <-errc:
			return fail(err)
		case <-hup:
			logger.Printf("SIGHUP: reloading %s", *db)
			if err := load(); err != nil {
				logger.Printf("reload failed, keeping generation %d: %v", api.Generation(), err)
			}
		case <-ctx.Done():
			stop()
			logger.Printf("signal received, draining for up to %s", *grace)
			sctx, cancel := context.WithTimeout(context.Background(), *grace)
			defer cancel()
			if err := srv.Shutdown(sctx); err != nil {
				return fail(fmt.Errorf("shutdown: %w", err))
			}
			if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
				return fail(fmt.Errorf("serve: %w", err))
			}
			logger.Printf("drained cleanly")
			return 0
		}
	}
}
