#!/usr/bin/env bash
# Builds placebench from source and runs it. Run from the root of a
# checkout; every argument is passed on:
#
#   bash placebench/run.sh --workload whatif-http --seed 1 --seconds 20 --trace 0
#
# The Go build cache, module cache and binary live under .bench_build in
# the checkout, so a run writes nothing outside it. A failed build exits
# non-zero before anything reaches standard output.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
(cd "$root/placebench" && go build -o "$build/placebench" .) >&2
exec "$build/placebench" --commit "$commit" "$@"
