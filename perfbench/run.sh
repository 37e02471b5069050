#!/usr/bin/env bash
# Builds the benchmark and asapd from this source tree, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sweep-quick --seed 1 --seconds 15 --trace 0
#
# Binaries, the Go build cache and per-run scratch space all live under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written
# outside the tree.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export PPROF_TMPDIR=$out/pprof GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -C "$root/perfbench" -buildvcs=false -o "$out/perfbench" .
go build -C "$root" -buildvcs=false -o "$out/asapd" ./cmd/asapd
exec "$out/perfbench" -asapd "$out/asapd" -work "$out" "$@"
