#!/usr/bin/env bash
# Builds the benchmark program from source and runs it. Run from the root of
# a checkout; every build and run artifact lands under .bench_build/ there.
#
#   bash perfbench/run.sh --workload rt-microtasks --seed 1 --seconds 12 --trace 0
#
# The benchmark needs the FRIEDA sources next to perfbench/ (go.mod replaces
# the frieda module with ../); without them the build fails and the script
# exits non-zero before printing any result.
set -euo pipefail

root="$(pwd)"
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

# Keep the Go toolchain's caches, config and temp files inside the checkout
# and never let it reach for the network.
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out/trace" "$@"
