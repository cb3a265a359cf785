#!/usr/bin/env bash
# Builds the benchmark from the enclosing repository's source and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload atomic-wal --seed 1 --seconds 10 --trace 0
#
# Build outputs and the run's scratch directories stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Write back what the build left in the page cache, so that it does not
# compete with the first run's WAL fsyncs.
sync -f "$out/perfbench"
exec "$out/perfbench" "$@"
