#!/usr/bin/env bash
# Builds the service benchmark from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash svcbench/run.sh --workload warm-serve --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact (binary, Go build
# cache, module cache, toolchain config) stays under .bench_build in the
# current directory; the toolchain is never downloaded and no module is
# fetched. Outside a full checkout the build fails and the script exits
# non-zero without printing a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/svcbench" && go build -o "$build/svcbench" .)
exec "$build/svcbench" --workdir "$build" "$@"
