#!/usr/bin/env bash
# Builds the rcpt benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload study-cold --seed 1 --seconds 22 --trace 0
#
# Run from the repository root. Every build product (binary, Go build
# cache, temporary files) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# The Go command's cache, temporary files, module path and the config
# directory it reads and writes (go env file, telemetry counters) all
# live under .bench_build; nothing is fetched.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/rcptbench" .)
exec "$out/rcptbench" -out "$out" "$@"
