#!/usr/bin/env bash
# Builds the benchmark, and with it the program, from the source in this
# checkout and runs it with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-unique --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
# The build fails, and so does this script, where the program's source is
# missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
