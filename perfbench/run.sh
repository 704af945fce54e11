#!/usr/bin/env bash
# Builds cubie and perfbench from the checkout this is run from, then runs
# perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload campaign-cold --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# under $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the checkout.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath TMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS= GOENV=off

go build -o "$out/cubie" ./cmd/cubie
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --cubie "$out/cubie" --work "$out" "$@"
