#!/usr/bin/env bash
# Builds the host-throughput benchmark from the sources of the checkout it
# is run in, then runs it. Run from the repository root:
#
#   bash hostbench/run.sh --workload rf-bound --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/hostbench" && go build -o "$out/hostbench" .)
exec "$out/hostbench" -root "$root" "$@"
