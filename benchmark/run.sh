#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: builds the benchmark from source
# inside the checkout and runs it from the checkout's root.
#
#   bash benchmark/run.sh --workload register --seed 1 --seconds 32 --trace 0
#
# Everything the build and the run write stays in the checkout: Go's build
# cache, temporary files, module path and the go command's own counters under
# .bench_build/, the laps' files and the span file of a traced run under
# .bench_work/. The first build in a fresh checkout
# compiles the standard library too (about 20 s on 2 vCPUs); later ones take a
# fraction of a second.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go build -C "$root/benchmark" -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" -workdir "$root/.bench_work" "$@"
