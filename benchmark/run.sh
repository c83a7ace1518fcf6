#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs it
# from the checkout root. Everything go writes (build cache included) stays
# inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTOOLCHAIN=local GOPROXY=off
bin="$build/htbench"
# The VCS stamp gives the report its commit hash; a checkout that is not a
# usable git repository builds without it.
(cd "$here" && { go build -o "$bin" . 2>/dev/null || go build -buildvcs=false -o "$bin" .; }) >&2
cd "$root"
exec "$bin" "$@"
