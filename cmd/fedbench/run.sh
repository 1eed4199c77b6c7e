#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds fedbench from source inside the
# checkout (build cache included, so nothing is written outside it) and
# runs it with the driver's arguments.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/fdbs ]; then
	echo "fedbench: run from the root of a checkout that holds the program (go.mod, internal/)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$PWD/$build ;; esac
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# The go command's telemetry is on ("local") by default and, once a day per
# config directory, forks a setsid'ed sidecar that outlives `go build`. The
# config directory here is fresh in every checkout, so switch telemetry off
# before the first go invocation: no process may survive this script.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
go build -o "$build/fedbench" ./cmd/fedbench
exec "$build/fedbench" "$@"
