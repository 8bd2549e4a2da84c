# Development targets. `make ci` is the gate: gofmt + vet + build +
# race-enabled tests over every package + the conformance harness, the
# fuzz smoke pass, the coverage floors and the docs-link check.

GO ?= go
FUZZTIME ?= 30s

.PHONY: ci fmt vet build test race test-short serve-race serving-race ingest-race score-race blocking-race docstore-race delta-race stream-race provenance-race conformance fuzz-smoke cover bench-matching bench-blocking bench-docstore bench-serving bench-delta bench-dedup bench-e2e-check bench-e2e docs

ci: fmt vet build bench-e2e-check race docs conformance fuzz-smoke cover score-race blocking-race docstore-race serving-race delta-race stream-race provenance-race bench-blocking bench-docstore bench-serving bench-delta bench-dedup

# Fail when any tracked Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# benchmark/ is a module of its own (BENCHMARK.json's harness), so the root
# `./...` patterns never reach it: vet and test it here, or a change to an
# API it calls breaks the benchmark unseen.
bench-e2e-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# One untraced end-to-end benchmark run as the driver makes it:
# `make bench-e2e W=churn` (register | churn | census).
bench-e2e:
	bash benchmark/run.sh --workload $(W) --seed 1 --seconds 32 --trace 0

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The race-enabled integration suite is ~10x slower than the plain one;
# Go's default 10-minute per-binary timeout is too tight for
# internal/bench on small hosts, so set an explicit budget.
race:
	$(GO) test -race -timeout 45m ./...

# The serving-stack subset of the race suite — fast enough for a pre-commit
# check of docstore/httpapi/obs changes.
serve-race:
	$(GO) test -race ./internal/docstore ./internal/httpapi ./internal/obs

# The serving-snapshot suite under the race detector: lock-free reads under
# atomic swap (TestSwapUnderLoad), the snapshot/cache unit tests and the
# load generator. The store-vs-snapshot byte-identity oracle runs with the
# conformance harness (internal/testkit).
serving-race:
	$(GO) test -race ./internal/serving ./internal/loadgen ./internal/httpapi

# The parallel-ingest equivalence suite under the race detector — the
# byte-identical-to-sequential guarantee of docs/ARCHITECTURE.md.
ingest-race:
	$(GO) test -race -run 'TestParallelImport|TestStreamTSVLongLine' ./internal/core ./internal/voter

# The parallel-scoring equivalence suite under the race detector — the
# bit-identical-to-sequential guarantee of the §6.3/§6.5 scoring engine
# (docs/ARCHITECTURE.md "Scoring engine"), including the fused
# heterogeneity scorer's differential oracle against per-pair scoring
# (full, incremental, delta, singleton and unequal-kinds scoring over the
# worker ladder {1, 2, 7, GOMAXPROCS}).
score-race:
	$(GO) test -race -run 'TestParallelScore|TestUpdateScores|TestEntropyDeterministic|TestSoftCosineDeterministic|TestIntoVariantsMatch|TestHybridIntoVariantsMatch|TestEvaluateAllParallel' \
		./internal/dedup ./internal/simil ./internal/hetero ./internal/plaus ./internal/core
	$(GO) test -race -run 'TestConformanceHeteroFused|TestConformanceClusterScoring' ./internal/testkit

# The blocking-layer equivalence suite under the race detector — the
# bit-identical-for-any-worker-count guarantee of the candidate-generation
# layer (docs/BLOCKING.md "Determinism"): the package's own ladder tests
# plus the blocking differential oracle in internal/testkit.
blocking-race:
	$(GO) test -race ./internal/blocking
	$(GO) test -race -run 'TestConformanceBlocking' ./internal/testkit

# The segmented-persistence equivalence suite under the race detector — the
# identical-for-any-worker-count guarantee of the parallel docstore save/load
# path and the streaming pipeline (docs/ARCHITECTURE.md "Document store").
# The worker ladder {1, 2, 7, GOMAXPROCS} lives in the tests themselves.
docstore-race:
	$(GO) test -race -run 'TestSaveLoadParallel|TestSaveParallel|TestLoadParallel|TestLoadRejects|TestLoadSkips|TestSegmented|TestPipeline|TestForEachParallel|TestFromDocDBParallel' \
		./internal/docstore ./internal/core

# The delta-ingest equivalence suite under the race detector — the
# bit-identical-to-full-reimport guarantee of incremental snapshot
# application (docs/ARCHITECTURE.md "Delta ingest"): the core delta and
# fingerprint-index tests, the dirty-segment save oracle, and the testkit
# differential oracle over the worker ladder {1, 2, 7, GOMAXPROCS} and
# changed fractions {0%, 1%, 25%, 100%}.
delta-race:
	$(GO) test -race -run 'TestApplySnapshotDelta|TestDelta|TestFingerprintIndex|TestUpdateScoresScope' ./internal/core
	$(GO) test -race -run 'TestDirtySave|TestSegmentCache|TestStrideSave|TestSegmentRangesStride' ./internal/docstore
	$(GO) test -race -run 'TestConformanceDelta' ./internal/testkit

# The streaming-dedup equivalence suite under the race detector — the
# bit-identical-to-materialized guarantee of the fused pipeline
# (docs/BLOCKING.md "Streaming mode"): the producer's own ladder tests, the
# streaming scorer's equivalence tests, and the end-to-end testkit oracle
# over the worker ladder {1, 2, 7, GOMAXPROCS}.
stream-race:
	$(GO) test -race -run 'TestStream|TestSNMSource' ./internal/blocking
	$(GO) test -race -run 'TestStream|TestThresholdBucket|TestCurveFromCounts|TestMemo' ./internal/dedup
	$(GO) test -race -run 'TestConformanceStreamingDedup' ./internal/testkit

# The provenance-chain suite under the race detector — the record's own unit
# and hostile-input tests, the save-mode-independence differential oracle
# (full reimport vs delta-applied store must stamp byte-identical records at
# every worker count) and the bit-flip fault sweep that must pinpoint the
# exact corrupted file (docs/ARCHITECTURE.md "Provenance chain").
provenance-race:
	$(GO) test -race ./internal/provenance
	$(GO) test -race -run 'TestConformanceProvenance|TestProvenanceFaultSweep' ./internal/testkit

# The unified conformance harness (docs/TESTING.md): the three differential
# oracles — ingest, scoring, docstore — through internal/testkit under the
# race detector, plus the fault-injection sweep, the examples smoke test
# and the shared scanner-limit regression.
conformance:
	$(GO) test -race ./internal/testkit ./internal/scanio

# Every native fuzz target, seeds plus $(FUZZTIME) of live fuzzing each.
# `make fuzz-smoke FUZZTIME=10m` digs deeper on one coffee break.
FUZZ_TARGETS = \
	FuzzParseHeader:./internal/voter \
	FuzzDecodeRow:./internal/voter \
	FuzzStreamTSV:./internal/voter \
	FuzzLoadFile:./internal/docstore \
	FuzzLoadSegmented:./internal/docstore \
	FuzzDocEncoder:./internal/docstore \
	FuzzStringKernels:./internal/simil \
	FuzzTokenKernels:./internal/simil \
	FuzzValueSimShortcuts:./internal/hetero \
	FuzzProvenanceDecode:./internal/provenance \
	FuzzChainVerify:./internal/provenance

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t##*:}; \
		echo "==> fuzz $$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run '^$$' -fuzz "^$$name$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# Per-package coverage floors (coverage_floors.txt). The floors are a
# ratchet: raise them when coverage rises, never lower them to ship.
cover:
	@fail=0; while read -r pkg floor; do \
		case "$$pkg" in ''|\#*) continue;; esac; \
		pct=$$($(GO) test -cover "$$pkg" | tail -1 | grep -oE '[0-9]+\.[0-9]+% of statements' | grep -oE '^[0-9]+\.[0-9]+'); \
		if [ -z "$$pct" ]; then echo "FAIL $$pkg: no coverage reported"; fail=1; continue; fi; \
		if awk -v p="$$pct" -v f="$$floor" 'BEGIN{exit !(p >= f)}'; then \
			echo "ok   $$pkg $$pct% (floor $$floor%)"; \
		else echo "FAIL $$pkg $$pct% under floor $$floor%"; fail=1; fi; \
	done < coverage_floors.txt; exit $$fail

# Matching-throughput ladder (pairs/sec per measure, legacy vs engine) —
# the numbers behind the EXPERIMENTS.md matching section.
bench-matching:
	$(GO) run ./cmd/ncbench -scale small -exp matching

# Candidate-generation ladder (SNM pass counts, trigram banding, union):
# pairs considered, reduction, recall of injected duplicates and the
# parallel worker ladder — the numbers behind the EXPERIMENTS.md blocking
# section (BENCH_blocking.json).
bench-blocking:
	$(GO) run ./cmd/ncbench -scale small -exp blocking

# Segmented save/load ladder plus the pipeline pushdown comparison — the
# numbers behind the EXPERIMENTS.md docstore section (BENCH_docstore.json).
bench-docstore:
	$(GO) run ./cmd/ncbench -scale small -exp docstore

# Closed-loop serving-load ladder (direct vs cache vs snapshot vs both) —
# the numbers behind the EXPERIMENTS.md serving section (BENCH_serving.json).
bench-serving:
	$(GO) run ./cmd/ncbench -scale small -exp load

# Incremental-application ladder (delta apply + dirty rescoring + dirty
# segments vs full reimport at 1%/5%/25%/100% changed) — the numbers behind
# the EXPERIMENTS.md delta section (BENCH_delta.json).
bench-delta:
	$(GO) run ./cmd/ncbench -scale small -exp delta

# End-to-end dedup memory/throughput comparison (materialized vs streamed
# pipeline on a synthetic 100k-record corpus, identity-checked) — the
# numbers behind the EXPERIMENTS.md "Dedup at scale" section
# (BENCH_dedup.json). Runs at a reduced record count in CI so the gate
# stays fast; the committed artifact is a full 100k run.
bench-dedup:
	$(GO) run ./cmd/ncbench -scale small -exp dedup -dedup-records 20000

# Fail when the README links to a docs/ file that does not exist.
docs:
	@missing=0; for f in $$(grep -oE 'docs/[A-Za-z0-9_.-]+\.md' README.md | sort -u); do \
		if [ ! -f "$$f" ]; then echo "README links to missing $$f"; missing=1; fi; done; \
	exit $$missing
