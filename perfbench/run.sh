#!/usr/bin/env bash
# Builds the JITS wall-clock benchmark from this checkout and runs it.
#
#   bash perfbench/run.sh --workload mixed_dml --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, span dumps) goes under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
