#!/bin/sh
# run.sh builds the benchmark from source into benchmark/out/ and runs
# it with the given flags. Everything the Go toolchain writes (build
# cache, temporary files, configuration) is redirected under
# benchmark/out/, so a run touches nothing outside the checkout.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
out="$here/out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/dpfs-benchmark" .)
exec "$out/dpfs-benchmark" -spec "$here/../BENCHMARK.json" -out "$out" "$@"
