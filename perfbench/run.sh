#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call it from the root of a
# checkout, e.g.
#
#   bash perfbench/run.sh --workload hit-table2 --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary build files and traces stay under
# .bench_build in the checkout.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
cd "$root/perfbench"
exec go run . -root "$root" "$@"
