#!/usr/bin/env bash
# Builds the benchmark and fourshadesd from this checkout, then runs one
# workload. Run it from the root of the checkout:
#
#   bash fsbench/run.sh --workload census --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C fsbench build -o "$out/fsbench" . >&2
go build -o "$out/fourshadesd" ./cmd/fourshadesd >&2
exec "$out/fsbench" --root "$root" --daemon "$out/fourshadesd" "$@"
