#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload engine-sweep --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all --seconds 5    # every workload, one report
#   bash perfbench/run.sh --list-metrics
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the run records.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/gocache" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export XDG_CONFIG_HOME="$out/config"
export GOTELEMETRY=off
# The benchmark and the program have no dependencies to download.
export GOPROXY=off

# The build fails, and the run stops without a result, when the program's
# module is not next to the benchmark.
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# Write the build out to disk now, so its writeback does not stall the
# store's fsyncs while the run is timed.
sync
exec "$out/perfbench" "$@"
