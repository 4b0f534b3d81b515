#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it with
# the given arguments, for example:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, binary) stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOENV=off
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
