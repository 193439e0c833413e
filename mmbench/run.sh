#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#
#   bash mmbench/run.sh --workload country|d1|ingest --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout: the Go build cache, the binary,
# span files, CPU profiles and daemon checkpoints.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off

# The build fails, and the script exits nonzero without a result, when
# the module it measures (the parent directory) is missing.
(cd "$root/mmbench" && go build -o "$out/mmbench" .)
exec "$out/mmbench" "$@"
