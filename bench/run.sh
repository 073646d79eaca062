#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark, for example
#
#   bash bench/run.sh --workload single-live --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, scratch stores and span files all live
# in .bench_build/ under the root, so nothing outside the checkout is
# read or written besides the Go toolchain itself.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
