#!/usr/bin/env bash
# Builds dtnbench and dtnserved from this checkout into .bench_build/bin
# and runs dtnbench with the given arguments, from the checkout's root:
#
#   bash bench/run.sh --workload replay-dense --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1                  # every workload
#   bash bench/run.sh ab -base HEAD~1 -pairs 10 # paired A/B
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS= GO111MODULE=on
go -C bench build -o "$build/bin/" ./dtnbench
go build -o "$build/bin/" ./cmd/dtnserved
exec "$build/bin/dtnbench" "$@"
