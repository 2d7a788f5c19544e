#!/usr/bin/env bash
# Builds the DASC benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#
#   bash dascperf/run.sh --workload wiki-sharded --seed 1 --seconds 20 --trace 0
#   bash dascperf/run.sh --workload all --seed 1 --seconds 20
#   bash dascperf/run.sh compare old.json new.json
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, temp files (shards,
# spill runs) and the traced run's span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/modcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/modcache"
# XDG_CONFIG_HOME keeps the toolchain's telemetry and env files in the
# checkout as well.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/dascperf" && go build -o "$out/dascperf" .)
exec "$out/dascperf" "$@"
