#!/usr/bin/env bash
# Builds tdserve, tdtrain and the benchmark from this checkout and runs one
# benchmark pass. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Every build artefact, cache and work file stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/tdserve || ! -d cmd/tdtrain || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a tdmagic checkout" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
go build -o "$build/bin/" ./cmd/tdserve ./cmd/tdtrain >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -build "$build" "$@"
