#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of a checkout of the repository:
#
#   bash bench/run.sh --workload serve-mlp1-closed --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache and the go command's own state
# (module path, telemetry counters) stay in .bench_build/ inside the
# checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/accel || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (go.mod, internal/ and bench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off

go -C bench build -o "$out/mnnbench" .
exec "$out/mnnbench" "$@"
