#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the build writes — the Go build cache
# included — lands under .bench_build (or $CARGO_TARGET_DIR when the
# driver sets it), so nothing outside the checkout is touched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# The simulator's module must be right here: a go.mod further up would
# build something else.
[ -f go.mod ] || { echo "bench/run.sh: no go.mod beside bench/: nothing to benchmark" >&2; exit 1; }

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache"

go build -o "$build/attila-bench" ./bench
exec "$build/attila-bench" -out "$build/out" "$@"
