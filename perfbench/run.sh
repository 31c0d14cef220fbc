#!/usr/bin/env bash
# Builds dpmd and the benchmark from this checkout into .bench_build,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload plan_hot --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --smoke
#
# Run it from the repository root. Every build artifact, Go cache and
# span file stays under .bench_build.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dpmd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/dpmd and perfbench/ must exist)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off GOSUMDB=off

go build -o "$build/dpmd" ./cmd/dpmd
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -dpmd "$build/dpmd" -repo "$root" -out "$build" "$@"
