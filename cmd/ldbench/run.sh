#!/usr/bin/env bash
# Builds ldbench from source and runs it with the given flags. Run it from
# the repository root:
#
#	bash cmd/ldbench/run.sh -workload trace-hb -seed 7 -seconds 20 -trace 0
#
# Every build product, the Go build cache included, goes under
# .bench_build/ in the current directory, so a run reads and writes
# nothing outside the checkout. No module is downloaded: the benchmark
# depends only on the repository's own module, through a replace.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -C "$root/cmd/ldbench" -o "$out/ldbench" .
exec "$out/ldbench" "$@"
