#!/usr/bin/env bash
# Builds the benchmark driver and gcxd from the checkout's sources and
# runs the driver with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload xmark-batch --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a gcx checkout. Every build product, the Go
# build cache included, goes to .bench_build in that checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gcxd || ! -d internal ]]; then
	echo "perfbench: run from the root of a gcx checkout (go.mod, cmd/gcxd and internal/ are missing)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
# Keep the go command's caches, temporary files and telemetry inside the
# checkout, and its settings independent of the user's go env file.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0

go build -o "$out/bin/perfbench" ./perfbench >&2
go build -o "$out/bin/gcxd" ./cmd/gcxd >&2

exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
