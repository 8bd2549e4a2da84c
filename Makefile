# Development targets. `make ci` is the gate: gofmt + vet + build + the
# fused-multiply-add scan + the end-to-end benchmark's own vet and tests + the report golden +
# race-enabled tests over every package (the conformance harness included),
# the docs-link check, the fuzz smoke pass and the coverage floors.

GO ?= go
FUZZTIME ?= 30s

.PHONY: ci fmt vet build fma-check test race test-short conformance report-check fuzz-smoke cover loc bench-e2e-check bench-e2e docs

ci: fmt vet build fma-check bench-e2e-check report-check race docs fuzz-smoke cover

# Fail when any tracked Go file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# One dataset on every CPU: the Go spec lets arm64, riscv64, ppc64le, s390x
# and loong64 fuse x*y + z into one instruction with one rounding (amd64
# never does), which moves stored scores by an ulp and with them the corpus
# root. Every such site rounds the product explicitly, float64(x*y). This
# cross-compiles for two fusing ports and fails on any fused opcode in the
# assembly, naming its file and line.
FMA_ARCHS = arm64 riscv64
fma-check:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; fail=0; \
	for arch in $(FMA_ARCHS); do \
		if ! GOARCH=$$arch $(GO) build -gcflags=-S ./internal/... ./cmd/... >"$$tmp" 2>&1; then \
			tail -20 "$$tmp"; echo "FAIL GOARCH=$$arch does not build"; fail=1; continue; fi; \
		if grep -qE '\)[[:space:]]+FN?M(ADD|SUB)[DS][[:space:]]' "$$tmp"; then \
			echo "FAIL GOARCH=$$arch fuses multiply-adds; round the product, float64(x*y):"; \
			sed -nE 's,.*\($(CURDIR)/([^()]+:[0-9]+)\)[[:space:]]+(FN?M(ADD|SUB)[DS])[[:space:]].*,  \1 \2,p' "$$tmp" | sort -u; fail=1; \
		else echo "ok   GOARCH=$$arch: no fused multiply-add"; fi; \
	done; exit $$fail

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

# The unified conformance harness (docs/TESTING.md), the quick pre-commit
# subset of `make race`: every differential oracle of internal/testkit
# (ingest, scoring, docstore, blocking, streaming dedup, delta, serving,
# provenance) under the race detector, plus the fault-injection sweeps and
# the examples smoke test.
conformance: report-check
	$(GO) test -race ./internal/testkit

# report_small.md is a golden: every Table 1-4 / Figure 3-5 number of the
# reproduction at one seed. Regenerate the experiments it renders and compare
# byte for byte; a PR that changes the file names the paper shape that moved
# (EXPERIMENTS.md). Figure 1, the ablations and the scale sweep render no
# section there; their own tests run them.
REPORT_EXPS = table1,table2,table3,table4,figure3,figure4a,figure4b,figure4c,figure5,figure5cmp
report-check:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/ncbench -scale small -exp $(REPORT_EXPS) -top 100 -seed 1 -md "$$tmp" >/dev/null && \
	cmp "$$tmp" report_small.md && echo "ok   report_small.md reproduced byte for byte"

# Every native fuzz target, seeds plus $(FUZZTIME) of live fuzzing each.
# `make fuzz-smoke FUZZTIME=10m` digs deeper on one coffee break.
FUZZ_TARGETS = \
	FuzzParseHeader:./internal/voter \
	FuzzDecodeRow:./internal/voter \
	FuzzStreamTSV:./internal/voter \
	FuzzLoadSegment:./internal/docstore \
	FuzzLoadSegmented:./internal/docstore \
	FuzzDocEncoder:./internal/docstore \
	FuzzDocDecoder:./internal/docstore \
	FuzzClusterJSON:./internal/core \
	FuzzImportLines:./internal/core \
	FuzzStringKernels:./internal/simil \
	FuzzTokenKernels:./internal/simil \
	FuzzValueSimShortcuts:./internal/hetero \
	FuzzEngineKernelSymmetric:./internal/dedup \
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

# The number ROADMAP.md's line bar is written in: non-test Go lines under
# internal + cmd, per package and in total.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'

# Fail when the README links to a docs/ file that does not exist.
docs:
	@missing=0; for f in $$(grep -oE 'docs/[A-Za-z0-9_.-]+\.md' README.md | sort -u); do \
		if [ ! -f "$$f" ]; then echo "README links to missing $$f"; missing=1; fi; done; \
	exit $$missing
