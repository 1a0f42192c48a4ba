#!/usr/bin/env bash
# Builds lbserve and the serving benchmark from this checkout, then runs
# the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash servebench/run.sh -open-rate 50000 --workload rebid-durable --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache and the WAL directories of a run all
# live under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/lbserve ] || [ ! -d internal ]; then
	echo "servebench: run from the root of a repository checkout (no cmd/lbserve here)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/lbserve" ./cmd/lbserve
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -lbserve "$out/lbserve" -workdir "$out" "$@"
