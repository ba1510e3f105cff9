#!/usr/bin/env bash
# Builds nsserve, nscoord and the benchmark driver from this checkout,
# then runs the driver with the arguments given.  Run from the
# repository root:
#
#   bash perfbench/run.sh --workload opt-ns-fresh --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTELEMETRY=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/" ./cmd/nsserve ./cmd/nscoord >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
