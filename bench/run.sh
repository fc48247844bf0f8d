#!/usr/bin/env bash
# Builds scrubbench from source and runs it with the given flags, from the
# repository root:
#
#   bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace] [-repeat N]
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, temporary files and the binary go to .bench_build/, reports
# and span files to bench/out/.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

(
	cd "$bench"
	GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$build/scrubbench" ./scrubbench
)

exec "$build/scrubbench" -out "$bench/out" "$@"
