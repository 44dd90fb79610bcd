#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything
# the build leaves behind (Go build cache, module cache, the binary)
# stays under .bench_build/ in the checkout; nothing is read or written
# outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# HOME too: the go command keeps its env file and telemetry counters
# under the user's config directory.
(
	cd "$here"
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
	export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
	export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOENV=off
	go build -o "$build/chiarobench" .
)
cd "$root"
exec "$build/chiarobench" "$@"
