#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from bench/, so everything it reads or writes —
# Go's build cache, temporary files and telemetry counters (which go to
# the user's config directory) included — stays inside the checkout.
# Arguments pass through: see main.go.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
cd "$here"
go build -o "$build/poem-bench" .
exec "$build/poem-bench" "$@"
