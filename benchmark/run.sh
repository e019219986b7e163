#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload cold-build --seed 1 --seconds 25 --trace 0
#   bash benchmark/run.sh -seed 1 -o run.json          # every workload
#
# Everything the build and the run write (Go build cache, the binary,
# build directories, the daemon's socket) stays under .bench_build/ at the
# repository root. Without the repository around this directory the build
# fails and the script exits nonzero without printing a result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$here" build -o "$out/ipra-benchmark" .
cd "$root"
exec "$out/ipra-benchmark" "$@"
