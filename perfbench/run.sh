#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it. Run
# from the root of the checkout:
#
#   bash perfbench/run.sh --workload figures|serve|collectives \
#       --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, temp
# files, the binary and the CPU profiles.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOMODCACHE=$build/gopath/pkg/mod GOPROXY=off GOTOOLCHAIN=local
export GOWORK=off GOFLAGS= CGO_ENABLED=0 TMPDIR=$build/tmp
mkdir -p "$GOTMPDIR"

(cd perfbench && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" "$@"
