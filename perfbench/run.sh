#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Every build product (binary, Go build cache, Go config) stays under
# .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
