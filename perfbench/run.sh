#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from
# the repository root. Every build and run artifact (Go caches, the
# binary, scratch stores, span dumps) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp" "$out/home"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/work" -refs "$root/perfbench/reference.json" "$@"
