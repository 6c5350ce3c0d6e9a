#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh --workload synth-stream --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and every scratch file the benchmark
# writes stay under .bench_build at the repository root (or under
# $CARGO_TARGET_DIR when it is set), so a run touches nothing outside
# the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/sgxperf-bench" .)
exec "$out/sgxperf-bench" -work "$out" "$@"
