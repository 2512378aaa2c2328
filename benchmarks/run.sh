#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Everything the toolchain writes — build cache, module cache, its own
# configuration — is kept under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal ]]; then
  echo "benchmarks/run.sh: the rheem module is not in $root; nothing to build" >&2
  exit 1
fi
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOTOOLCHAIN=local
# Telemetry off before the first go command: in its default mode go starts
# a detached child that outlives the build.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/e2e" ./benchmarks/e2e
exec "$build/e2e" "$@"
