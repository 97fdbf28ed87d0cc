#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload pagerank --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The binary, the Go build cache and the
# run records all stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
