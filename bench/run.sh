#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the Go
# toolchain writes (build cache, module cache, temporary files) is kept under
# .bench_build/ too, so a run touches nothing outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/home" "$build/tmp"
export HOME=$build/home GOCACHE=$build/gocache GOPATH=$build/gopath
export TMPDIR=$build/tmp GOTMPDIR=$build/tmp GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$here" && go build -o "$build/bench" .) >&2
exec "$build/bench" "$@"
