#!/usr/bin/env bash
# Builds fleetbench from this checkout and runs it; arguments pass through.
# Run from the repository root:
#
#   bash fleetbench/run.sh --workload replay-32 --seed 1 --seconds 35 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch data all stay
# under .bench_build/ in the checkout; nothing is written outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .) >&2
cd "$root"
exec "$out/fleetbench" --workdir "$out" "$@"
