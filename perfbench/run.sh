#!/usr/bin/env bash
# Repository benchmark entry point. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-cells|quick-suite|serve \
#        --seed N --seconds S --trace 0|1
#
# Builds the benchmark program (this directory, its own Go module) and
# prodigy-serve from the checkout, with every build artifact, cache and
# scratch file kept under .bench_build/, then runs one workload. The last
# line of standard output is the JSON result; progress and failures go to
# standard error.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/prodigy-serve ] || [ ! -d internal/exp ]; then
	echo "perfbench: run from the root of a prodigy checkout (go.mod, cmd/prodigy-serve, internal/exp)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="" GOWORK=off GOFLAGS="" \
	GOTOOLCHAIN=local CGO_ENABLED=0

# The in-process workloads run the same profile-guided build prodigy-bench
# users get; prodigy-serve is built exactly as `go build` builds it.
pgo=off
if [ -f cmd/prodigy-bench/default.pgo ]; then
	pgo="$root/cmd/prodigy-bench/default.pgo"
fi
go -C perfbench build -pgo="$pgo" -o "$out/perfbench" . >&2
go build -o "$out/prodigy-serve" ./cmd/prodigy-serve >&2

exec "$out/perfbench" -serve-bin "$out/prodigy-serve" -work-dir "$out" "$@"
