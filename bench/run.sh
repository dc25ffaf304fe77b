#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash bench/run.sh --workload fig3-spill --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary and every file a run writes
# stay under the build directory ($CARGO_TARGET_DIR when set, else
# .bench_build), so a run touches nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# The Go command's cache, module path and config (where it keeps telemetry)
# all move under the build directory too.
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -tmp "$out" "$@"
