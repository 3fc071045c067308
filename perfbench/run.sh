#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload kv_read_mostly --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact (binary, Go build
# cache, temporary files) stays under .bench_build/ in the current
# directory; CARGO_TARGET_DIR, when set, names that directory instead.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --workdir "$out" --config "$root/perfbench/workloads.json" "$@"
