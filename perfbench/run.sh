#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it; run it from
# the repository root with perfbench's own flags, for example
#
#   bash perfbench/run.sh --workload rsvm-modc --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the armed workload's artifacts all
# live under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOCACHE="$out/go-build" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --artifacts "$out" "$@"
