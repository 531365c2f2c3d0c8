#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout of the repository:
#
#   bash perfbench/run.sh --workload heavy-sims --seed 1 --seconds 50 --trace 0
#   bash perfbench/run.sh --selfcheck --seed 1
#
# The build writes only under .bench_build/ in the checkout. Without the
# repository's sources beside perfbench/ the build fails and the script
# exits non-zero before printing anything on standard output.
set -euo pipefail
root=$PWD
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
(
	cd "$root/perfbench"
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
	go build -o "$build/perfbench" .
) >&2
exec "$build/perfbench" "$@"
