#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes — build cache, module
# cache, temporary files, its telemetry counters, the binary — goes under
# .bench_build/ at the root of the checkout, and the benchmark itself writes
# under bench/out/. Nothing is downloaded: the module needs only its parent.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
(
	cd bench
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
		go build -o "$build/tampbench" .
)
exec "$build/tampbench" "$@"
