#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and
# runs it from the root with the arguments given.  Everything the go
# command would leave elsewhere (build cache, temporaries, module cache,
# telemetry counters) is pointed into .bench_build/ too, so nothing is
# written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	go build -C "$here" -o "$build/hetsort-bench" .
cd "$root"
exec "$build/hetsort-bench" "$@"
