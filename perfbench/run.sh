#!/usr/bin/env bash
# Builds the benchmark from source into the build directory
# ($CARGO_TARGET_DIR, default .bench_build, under the current directory)
# and runs it with the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 25 --trace 0
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$PWD/$build" ;; esac
mkdir -p "$build"
# Keep every file the toolchain writes inside the build directory.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
CARGO_TARGET_DIR="$build" exec "$build/perfbench" "$@"
