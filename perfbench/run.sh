#!/usr/bin/env bash
# Builds rsserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomod" GOTMPDIR="$PWD/$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/rsserve" ./cmd/rsserve >&2
(cd perfbench && go build -o "../$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
