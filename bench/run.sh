#!/usr/bin/env bash
# Builds the rcload benchmark from this checkout's sources and runs it,
# passing every argument through. Run it from the repository root:
#
#   bash bench/run.sh --workload hot_small --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the current directory, and the toolchain is kept
# offline: no module download, no toolchain switch.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/rcload" ./rcload
exec "$out/rcload" -workdir "$out/rcload-work" "$@"
