#!/usr/bin/env bash
# Builds kvbench from source and runs it with the given arguments. Run it
# from the root of the repository; the build, its caches and the span
# files stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$root/cmd/kvbench" && go build -o "$out/kvbench" .)
exec "$out/kvbench" "$@"
