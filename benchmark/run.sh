#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash benchmark/run.sh [--workload NAME --seed N --seconds S --trace 0|1]
#
# Everything the build writes stays inside the checkout: the Go build cache,
# its temporary files, the toolchain's own bookkeeping and the binary live
# in .bench_build/ (git-ignored), span files in benchmark/out/. No module is
# downloaded: the benchmark imports only the standard library and this
# repository.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/benchmark/go.mod" ]; then
	echo "run.sh: run from the repository root (no benchmark/go.mod under $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	go build -C "$root/benchmark" -o "$build/designerbench" ./cmd/designerbench
exec "$build/designerbench" "$@"
