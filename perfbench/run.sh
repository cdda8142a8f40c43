#!/usr/bin/env bash
# run.sh builds the perfbench benchmark from source and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sim-adapt-churn --seed 1 --seconds 55 --trace 0
#
# Every build artifact, cache and tool setting stays under .bench_build/
# in the current directory, so a run reads and writes nothing outside the
# checkout. The last stdout line of a run is the JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" HOME="$out/home"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export CGO_ENABLED=0
mkdir -p "$HOME"
# A run drives one single-threaded engine at a time; two Ps leave
# room for the collector and, on tcp-loopback, the node goroutines.
procs=$(nproc 2>/dev/null || echo 1)
[ "$procs" -gt 2 ] && procs=2
export GOMAXPROCS="$procs"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
