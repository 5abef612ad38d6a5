#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments:
#
#   bash tessbench/run.sh --workload heat3d-dram --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (the Go build cache, the binary) and every
# trace the benchmark writes goes under .bench_build/ at the checkout
# root. The build needs the repository's Go sources one directory up;
# without them it fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C tessbench build -o "$out/tessbench" .
exec "$out/tessbench" "$@"
