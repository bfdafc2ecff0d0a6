#!/usr/bin/env bash
# Builds tvbench from this checkout and runs it with the given arguments:
#
#   bash cmd/tvbench/run.sh --workload edit-100k --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binaries and every scratch file stay under
# .bench_build/ at the checkout root, so a run writes nothing outside the
# checkout and needs no network.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/cmd/tvbench" build -o "$build/tvbench" .
exec "$build/tvbench" -root "$root" "$@"
