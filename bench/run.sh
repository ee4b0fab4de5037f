#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the build leaves behind (Go build cache, binary, temp
# dirs, trace files) lands under .bench_build/ at the checkout root.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/ringmesh-bench" .)
exec "$out/ringmesh-bench" "$@"
